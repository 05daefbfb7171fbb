"""Extension, trace, split, and slot operators: oracles and guards."""

import math

import numpy as np
import pytest
from scipy import integrate

from harmspace import fields as fl
from harmspace import kernels
from harmspace import operators as op
from harmspace import quadrature as quad
from harmspace.geometry import Region
from harmspace.quadrature import AxisymmetricNodes, QuadSpec


def _testfield(l, n, height=1.0):
    w = np.zeros(n + 1)
    w[-1] = height
    return fl.TestField(l, n, w)


def _field_from_flat(k, axes, payload):
    """KernelIntegralField over the n = 1 tensor of two 1-D rules, axes =
    ((x, w_x), (s, w_s)), from a payload not yet weighted: (N,) or (P, N)
    over the points of quad.tensor_rule(axes)."""
    payload = np.asarray(payload, dtype=float)
    _, w = quad.tensor_rule(axes)
    nodes = tuple(np.asarray(x, dtype=float) for x, _ in axes)
    return op.KernelIntegralField(
        1, k, nodes, w * payload, payload.ndim == 2, "kernel-integral")


def _flat_axes(region, spec):
    """The (x, t) rules of the flat (n = 1) layout over the box region."""
    return quad.box_axis_quadrature(region, spec), quad.t_quadrature(region, spec)


def _flat_nodes(region, spec):
    """Flattened (points, weights) of the tensor of the _flat_axes rules."""
    return quad.tensor_rule(_flat_axes(region, spec))


def _field_from_axisym(n, k, nodes, payload):
    """KernelIntegralField over axisymmetric nodes from a payload not yet
    weighted, (n_uv, n_s) or (P, n_uv, n_s), whose row blocks are views of
    the weighted table."""
    payload = np.asarray(payload, dtype=float)
    wpay = nodes.w_uv[:, None] * payload
    wpay *= nodes.w_s
    stack = wpay.reshape((-1,) + wpay.shape[-2:])
    return op.KernelIntegralField(
        n, k, nodes, op.PayloadRows(stack.shape[0], lambda r0, r1: stack[:, r0:r1]),
        payload.ndim == 3, "kernel-integral")


def test_extension_reproduces_source_n1():
    # the flat layout; the truncation error falls about tenfold per
    # doubling of the region and reads at most 1.7e-5 at these points
    g = fl.BergmanField(2, 1, (0.0, 1.0))
    region = Region(64.0, 2.0 ** -7, 64.0)
    spec = QuadSpec(order=8, t_order=6, min_panel=0.25)
    E = op.extension_field(g, 2, region, spec)
    pts = np.array([[0.0, 1.0], [0.5, 0.7], [1.0, 2.0], [-1.5, 1.3], [0.2, 0.4]])
    rel = np.abs(E.values(pts) / g.values(pts) - 1.0)
    assert rel.max() < 1e-4


def test_extension_reproduces_source():
    g = _testfield(0, 3)
    region = Region(32.0, 2.0 ** -6, 32.0)
    spec = QuadSpec(order=8, t_order=6, min_panel=0.25)
    E = op.extension_field(g, 2, region, spec, offsets=(0.0, 1.0, 2.0))
    pts = np.array([[0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.7],
                    [1.0, 1.0, 0.0, 2.0], [0.0, 1.5, 0.5, 1.3]])
    rel = np.abs(E.values(pts) / g.values(pts) - 1.0)
    assert rel.max() < 2e-2


def test_mean_extension_slot_structure():
    # the two-slot extension is the field at the slots' mean
    g = _testfield(0, 2)
    region = Region(8.0, 0.125, 8.0)
    spec = QuadSpec(order=5, t_order=4)
    E = op.extension_field(g, 2, region, spec)
    # dyadic points and shifts: z + shift and z - shift are exact, and so
    # is their mean
    z = np.array([[0.375, 0.0, 1.0], [0.0, 0.5, 2.0]])
    shift = np.array([[0.25, -0.125, 0.5], [0.0, 0.375, -0.25]])
    a = E.values((z + shift + (z - shift)) / 2)
    assert np.array_equal(a, E.values((z + z) / 2))  # slot collapse
    assert np.array_equal(a, E.values(z))  # the trace is E itself
    assert np.array_equal(E.values((z - shift + (z + shift)) / 2), a)  # slot symmetry
    low = z.copy()
    low[:, -1] = -3.0
    with pytest.raises(ValueError):
        E.values((z + low) / 2)
    with pytest.raises(ValueError):
        op.extension_field(g, -1, region, spec)
    # the slot integral is the half-plane one
    with pytest.raises(ValueError):
        op.mean_slot_integral(E, 1.0, (0.5, 0.5), region, spec)


def test_distance_split_partitions_the_integral():
    g = _testfield(0, 2)
    region = Region(8.0, 0.125, 8.0)
    spec = QuadSpec(order=5, t_order=4)
    pts = np.array([[0.3, 0.0, 1.0], [0.0, 1.0, 0.5]])
    # eps = 0 puts every node in the superlevel set: f1 vanishes and f2
    # carries the whole reproducing integral
    f1, f2 = op.distance_split(g, [0.0], 2.0, 3, region, spec).values(pts)
    E = op.extension_field(g, 3, region, spec)
    assert np.abs(f1).max() == 0.0
    assert np.array_equal(f2, E.values(pts))
    # moderate eps: the two halves still sum to the full integral
    h1, h2 = op.distance_split(g, [0.05], 2.0, 3, region, spec).values(pts)
    assert np.allclose(h1 + h2, E.values(pts), rtol=1e-13)
    assert np.abs(h1).max() > 0.0
    with pytest.raises(ValueError):
        op.distance_split(g, [0.1], 2.0, 1, region, spec)  # m_order <= lam - 1
    for eps in (0.1, [[0.1]]):  # a number or a table is not a sequence of levels
        with pytest.raises(ValueError):
            op.distance_split(g, eps, 2.0, 3, region, spec)


def test_kernel_integral_field_guards():
    g = _testfield(0, 2)
    E = op.extension_field(g, 2, Region(4.0, 0.25, 4.0), QuadSpec(order=4, t_order=3))
    with pytest.raises(ValueError):
        E.values(np.array([[0.0, 0.0, -1.0]]))
    flat = _field_from_flat(2, (([0.0], [1.0]), ([1.0], [1.0])), [1.0])
    with pytest.raises(NotImplementedError):
        flat.radial_values(np.array([0.0]), np.array([1.0]))


def test_kernel_integral_field_rejects_points_off_the_half_space():
    region, spec = Region(4.0, 0.25, 4.0), QuadSpec(order=4, t_order=3)
    flat = op.extension_field(fl.BergmanField(2, 1, (0.0, 1.0)), 2, region, spec)
    axial = op.extension_field(_testfield(0, 2), 2, region, spec)
    bad = [(-1, -1.0), (-1, 0.0), (-1, np.nan), (-1, np.inf), (0, np.inf), (0, np.nan)]
    for fld in (flat, axial):
        good = np.zeros(fld.n + 1)
        good[-1] = 1.0
        assert np.isfinite(fld.values(good))
        for axis, value in bad:
            z = np.array([good, good])
            z[1, axis] = value
            with pytest.raises(ValueError):
                fld.values(z)
        with pytest.raises(ValueError):
            fld.values(np.ones((2, fld.n + 2)))
    for r, t in [(0.5, -1.0), (0.5, 0.0), (0.5, np.nan), (0.5, np.inf), (np.inf, 1.0),
                 (np.nan, 1.0)]:
        with pytest.raises(ValueError):
            axial.radial_values(np.array([0.0, r]), np.array([1.0, t]))


def test_sab_form_scipy_oracle():
    # (a_2, b_2) = (0, 0) leaves the one-slot integral in slot 1, through
    # the branch that builds each slot's kernel on its own; one point per
    # slot with weight 1 and p = 1 make the form |S(z, z)|
    f = fl.PowerField(1, 1.0)
    region = Region(2.0, 0.25, 2.0)
    z = np.array([[0.3, 1.2]])
    a, b = 0.5, 3.0
    got = op.sab_form(f, [a, 0.0], [b, 0.0], [z, z], [np.ones(1), np.ones(1)], 1.0,
                      region, QuadSpec(order=8, t_order=6))

    def integrand(y, s):
        return s ** (-1.0) * s ** (b - 2.0) * (
            (0.3 - y) ** 2 + (1.2 + s) ** 2) ** (-(a + b) / 2)

    oracle = 1.2 ** a * integrate.dblquad(integrand, 0.25, 2.0, -2.0, 2.0,
                                          epsabs=1e-13, epsrel=1e-13)[0]
    assert got == pytest.approx(oracle, rel=1e-9)


def test_sab_form_two_slots_and_guards():
    f = fl.PoissonField(1, np.array([0.0, 1.0]))
    region = Region(2.0, 0.25, 2.0)
    spec = QuadSpec(order=5, t_order=4)
    z1 = np.array([[0.0, 1.0], [0.5, 2.0]])
    z2 = np.array([[1.0, 0.5]])
    w = [np.ones(2), np.ones(1)]
    got = op.sab_form(f, [0.5, 0.5], [2.0, 2.0], [z1, z2], w, 1.5, region, spec)
    assert isinstance(got, float) and math.isfinite(got) and got > 0
    with pytest.raises(ValueError):
        op.sab_form(fl.PoissonField(2, np.array([0.0, 0.0, 1.0])),
                    [0.5], [2.0], [z2], [np.ones(1)], 1.0, region, spec)
    with pytest.raises(ValueError):
        op.sab_form(f, [0.5, 0.5], [2.0], [z1, z2], w, 1.0, region, spec)
    with pytest.raises(ValueError):
        op.sab_form(f, [0.5] * 3, [2.0] * 3, [z1, z1, z1], w + [np.ones(2)], 1.0,
                    region, spec)
    with pytest.raises(ValueError):
        op.sab_form(f, [0.5, 0.5], [2.0, 2.0], [z1, z2], w[:1], 1.0, region, spec)


_SLOT_ARGS = dict(a_vec=[0.5, 0.5], b_vec=[2.0, 2.0],
                  z_slots=[np.array([[0.0, 1.0], [0.5, 2.0]]), np.array([[1.0, 0.5]])])


@pytest.mark.parametrize("p, w_slots, message", [
    (0.0, [np.ones(2), np.ones(1)], "p must be finite and positive"),
    (-1.0, [np.ones(2), np.ones(1)], "p must be finite and positive"),
    (math.inf, [np.ones(2), np.ones(1)], "p must be finite and positive"),
    (math.nan, [np.ones(2), np.ones(1)], "p must be finite and positive"),
    (1.0, [np.ones((2, 1)), np.ones(1)], r"w_slots\[0\] must be 1-D"),
    (1.0, [np.ones(2), np.ones(2)], r"w_slots\[1\] must be 1-D with one weight per slot point \(1\)"),
    (1.0, [np.ones(2), np.array([math.nan])], r"w_slots\[1\] must be finite"),
    (1.0, [np.array([1.0, math.inf]), np.ones(1)], r"w_slots\[0\] must be finite"),
], ids=["p-zero", "p-negative", "p-inf", "p-nan", "w-2d", "w-length", "w-nan", "w-inf"])
def test_sab_form_rejects_bad_exponent_and_weights(p, w_slots, message):
    # |S|^0 would read 1 for every pair, a plausible number for no operator
    f = fl.PoissonField(1, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match=message):
        op.sab_form(f, w_slots=w_slots, p=p, region=Region(2.0, 0.25, 2.0),
                    spec=QuadSpec(order=5, t_order=4), **_SLOT_ARGS)


def test_d2_estimate_power_field_grid_step():
    # t^lam |t^-lam| = 1: every eps below 1 sees the full region and the
    # truncated integral keeps growing; every eps above 1 sees nothing
    n, pe, alpha = 2, 1.0, -0.5
    lam = (alpha + n + 1) / pe
    pw = fl.PowerField(n, lam)
    eps = 0.999 * 2.0 ** np.arange(-1.0, 1.1)
    [(d2, div, table, growth)] = op.d2_estimate(
        [pw], [eps], pe, alpha, 3, Region(4.0, 0.125, 4.0),
        QuadSpec(order=5, t_order=4), scales=(1.0, 2.0))
    assert list(div) == [True, True, False]
    assert d2 == eps[2]  # first grid point above the unit threshold
    assert table[2].max() == 0.0
    with pytest.raises(ValueError):
        op.d2_estimate([pw], [eps], pe, alpha, 1, Region(4.0, 0.125, 4.0),
                       QuadSpec(order=5, t_order=4), scales=(1.0, 2.0))


def test_divergence_proxy_scales_outward_only():
    # growth factors of a genuinely integrable configuration stay near 1
    # when the region doubles outward
    n = 2
    f = _testfield(4, n)
    lam, mo = 3.5, 4
    [(table, growth)] = op.divergence_proxy(
        [f], [[10.0]], lam, 1.0, -0.5, mo, Region(4.0, 0.125, 4.0),
        QuadSpec(order=5, t_order=4), scales=(1.0, 2.0))
    assert np.all(np.isfinite(growth))
    assert growth[0, -1] < 1.2


def test_trace_product_norm_guards():
    region = Region(4.0, 0.25, 4.0)
    spec = QuadSpec(order=4, t_order=3)
    E3 = op.extension_field(_testfield(0, 3), 2, region, spec)
    with pytest.raises(ValueError):
        op.mean_slot_integral(E3, 1.0, (0.5, 0.5), region, spec)
    # the slot integral is the two-slot one: one slot is rejected too
    E1 = op.extension_field(fl.BergmanField(2, 1, (0.0, 1.0)), 2, region, spec)
    with pytest.raises(ValueError):
        op.mean_slot_integral(E1, 1.0, (0.5,), region, spec)
    with pytest.raises(ValueError):
        op.extension_field(_testfield(0, 3), -1, region, spec)


def _all_pairs_slot_integral(E, p, s_vec, region, spec):
    """The mean-slot integral with E evaluated at every (u, t_i, t_j)
    triple, mean heights repeated: the brute-force form."""
    X = region.x_max
    t, wt = quad.t_quadrature(region, spec)
    taus = (0.5 * (t[:, None] + t[None, :])).ravel()
    U, wU = quad.tensor_rule([quad.box_axis_quadrature(region, spec)])
    overlap = np.prod(2 * X - 2 * np.abs(U), axis=1)
    tpair = np.outer(wt * t ** s_vec[0], wt * t ** s_vec[1]).ravel()
    P, _ = quad.tensor_rule([(U[:, 0], wU), (taus, tpair)])
    vals = np.abs(E.values(P)).reshape(U.shape[0], taus.size) ** p
    return float((wU * overlap) @ vals @ tpair), U, t


def test_mean_slot_integral_equals_all_pairs_with_one_value_per_point(monkeypatch):
    # the slot side of the trace inequality, bit for bit, from a field asked
    # once per distinct mean height
    g, p, s_vec = fl.BergmanField(2, 1, (0.0, 1.0)), 1.5, (0.25, 0.25)
    region, spec = Region(4.0, 0.25, 4.0), QuadSpec(order=4, t_order=3, cube_order=3)
    E = op.extension_field(g, 2, region, spec)
    want, U, t = _all_pairs_slot_integral(E, p, s_vec, region, spec)
    heights = np.unique(0.5 * (t[:, None] + t[None, :]))
    # symmetric in the pair, and dyadic panels share more mean heights
    assert heights.size <= t.size * (t.size + 1) // 2
    asked = []
    inner = E.values

    def counted(*args):
        out = inner(*args)
        asked.append(out.size)
        return out

    monkeypatch.setattr(E, "values", counted)
    assert op.mean_slot_integral(E, p, s_vec, region, spec) == want
    assert asked == [U.shape[0] * heights.size]


# ------------------------------------------- blocked and shared kernel loops


def _per_point_axial(fld, d, t):
    """Unblocked reference: one whole kernel table per point and payload."""
    nodes, wpay = fld._ax[0], _payload(fld)
    out = np.empty((wpay.shape[0], d.size))
    for j, w in enumerate(wpay):
        for i in range(d.size):
            D = nodes.dist_sq_to(d[i])[:, None]
            tau = t[i] + nodes.s[None, :]
            out[j, i] = np.sum(kernels.bergman_from_sq(fld.k, fld.n, D, tau) * w)
    return out


def _old_split_axisym(g, eps, lam, m, region, spec, offsets):
    """f1 and f2 built the way distance_split built them one eps at a time."""
    nodes = AxisymmetricNodes(region, g.n, spec, offsets)
    s = nodes.s[None, :]
    gv = g.radial_values(nodes.center_radius()[:, None], s)
    mask = s ** lam * np.abs(g.radial_values(nodes.center_radius()[:, None], s)) >= eps
    pay = gv * s ** m
    return (_field_from_axisym(g.n, m, nodes, pay * (~mask)),
            _field_from_axisym(g.n, m, nodes, pay * mask))


def test_kernel_in_place_accumulation_matches_expression():
    rng = np.random.default_rng(3)
    D = rng.uniform(0.0, 50.0, (40, 1))
    D[0] = 0.0
    tau = rng.uniform(0.05, 20.0, (1, 30))
    for l in range(4):
        for n in (1, 2, 3):
            terms = kernels.poisson_deriv_poly(l + 1, n)
            scale = (-2.0) ** (l + 1) / math.factorial(l) * kernels.poisson_constant(n)
            acc = 0.0
            for a, b, c in terms:
                acc = acc + c * tau**a * D**b
            want = scale * acc * (D + tau * tau) ** (-(n + 1) / 2 - (l + 1))
            assert np.array_equal(kernels.bergman_from_sq(l, n, D, tau), want)


def test_blocked_eval_axial_matches_per_point_reference(monkeypatch):
    g = _testfield(2, 3)
    region = Region(4.0, 0.125, 4.0)
    spec = QuadSpec(order=4, t_order=3)
    fld = op.distance_split(g, [0.01, 0.1], 2.0, 3, region, spec)
    nodes, pay = fld._ax
    assert pay.count == 4
    d = np.array([0.0, 0.7, 2.5])
    t = np.array([0.3, 1.0, 2.2])
    want = _per_point_axial(fld, d, t)
    assert np.array_equal(fld._eval_axial(d, t), want)
    # one row per block, then blocks of 66 rows with a partial last block
    for block in (1, 1000):
        monkeypatch.setattr(op, "_BLOCK_VALUES", block)
        assert np.array_equal(fld._eval_axial(d, t), want)
    single = _field_from_axisym(3, 3, nodes, g.radial_values(
        nodes.center_radius()[:, None], nodes.s[None, :]))
    assert np.array_equal(single._eval_axial(d, t), _per_point_axial(single, d, t))


def test_stacked_split_matches_separately_built_fields():
    g = _testfield(2, 3)
    region = Region(4.0, 0.125, 4.0)
    spec = QuadSpec(order=4, t_order=3)
    lam, m, offsets = 2.0, 3, (0.0, 1.0)
    eps = [0.01, 0.05, 0.2]
    stack = op.distance_split(g, eps, lam, m, region, spec, offsets)
    ones = op.distance_split(g, eps, lam, m, region, spec, offsets, parts=(1,))
    pts = np.array([[0.0, 0.0, 0.0, 1.0], [0.5, -0.3, 0.2, 0.4],
                    [1.0, 1.0, 0.0, 2.0]])
    r, t = np.array([0.0, 1.5])[:, None], np.array([0.5, 2.0])[None, :]
    vals, rad = stack.values(pts), stack.radial_values(r, t)
    assert vals.shape == (6, 3) and rad.shape == (6, 2, 2)
    for e_i, e in enumerate(eps):
        f1, f2 = _old_split_axisym(g, e, lam, m, region, spec, offsets)
        one = op.distance_split(g, [e], lam, m, region, spec, offsets)
        for j, fld in enumerate((f1, f2)):
            assert np.array_equal(vals[2 * e_i + j], fld.values(pts))
            assert np.array_equal(rad[2 * e_i + j], fld.radial_values(r, t))
            assert np.array_equal(one.values(pts)[j], fld.values(pts))
            assert np.array_equal(one.radial_values(r, t)[j], fld.radial_values(r, t))
        assert np.array_equal(ones.values(pts)[e_i], f1.values(pts))
    with pytest.raises(ValueError):
        op.distance_split(g, eps, lam, m, region, spec, parts=(3,))


def test_stacked_split_flat_layout():
    g = fl.PoissonField(1, np.array([0.0, 1.0]))
    region = Region(4.0, 0.125, 4.0)
    spec = QuadSpec(order=5, t_order=4)
    stack = op.distance_split(g, [0.02, 0.1], 1.0, 2, region, spec)
    pts = np.array([[0.0, 1.0], [0.5, 0.3], [-1.0, 2.0]])
    vals = stack.values(pts)
    for e_i, e in enumerate((0.02, 0.1)):
        one = op.distance_split(g, [e], 1.0, 2, region, spec).values(pts)
        assert np.array_equal(vals[2 * e_i : 2 * e_i + 2], one)
    assert np.allclose(vals[0] + vals[1], vals[2] + vals[3], rtol=1e-13)


def _old_divergence_proxy(f, eps_values, lam, p, alpha, m_order, region, spec, scales):
    """The per-eps masked-reduction loop that divergence_proxy replaced."""
    eps_values = np.asarray(eps_values, dtype=float)
    table = np.zeros((eps_values.size, len(scales)))
    for si, R in enumerate(scales):
        reg = Region(region.x_max * R, region.t_min, region.t_max * R)
        nodes = AxisymmetricNodes(reg, f.n, spec)
        svals = nodes.s
        fv = np.abs(f.radial_values(nodes.center_radius()[:, None], svals[None, :]))
        masks = (svals[None, :] ** lam * fv)[None, :, :] >= eps_values[:, None, None]
        wgt = nodes.w_uv[:, None] * nodes.w_s[None, :] * svals[None, :] ** (m_order - lam)
        t, wt = quad.t_quadrature(reg, spec)
        r, wr = quad.radial_quadrature(f.n, f.scale, reg.x_max, spec)
        inner = np.zeros((eps_values.size, r.size, t.size))
        for i, ri in enumerate(r):
            D = nodes.dist_sq_to(ri)[:, None, None]
            tau = t[None, None, :] + svals[None, :, None]
            kern = np.abs(kernels.bergman_from_sq(m_order, f.n, D, tau)) * wgt[:, :, None]
            for ei in range(eps_values.size):
                inner[ei, i, :] = np.sum(kern * masks[ei][:, :, None], axis=(0, 1))
        for ei in range(eps_values.size):
            table[ei, si] = wr @ (inner[ei] ** p) @ (wt * t**alpha)
    return table


def test_divergence_proxy_matches_masked_loop():
    n, pe, alpha, mo = 3, 1.0, -0.5, 4
    lam = (alpha + n + 1) / pe
    f = _testfield(4, n)
    pw = fl.PowerField(n, lam)
    region, spec, scales = Region(4.0, 0.125, 4.0), QuadSpec(order=4, t_order=3), (1.0, 2.0)
    eps_f, eps_p = [0.05, 0.2, 1e9], [0.5, 0.999, 2.0]
    [(table, growth)] = op.divergence_proxy([f], [eps_f], lam, pe, alpha, mo, region,
                                            spec, scales)
    want = _old_divergence_proxy(f, eps_f, lam, pe, alpha, mo, region, spec, scales)
    assert np.allclose(table, want, rtol=1e-13, atol=0.0)
    assert list(growth[2]) == [1.0]  # empty superlevel set: 0 -> 0
    assert np.allclose(growth[:2, 0], want[:2, 1] / want[:2, 0], rtol=1e-13, atol=0.0)
    # two fields with one kernel evaluation: the same tables
    (tf, _), (tp, _) = op.divergence_proxy(
        [f, pw], [eps_f, eps_p], lam, pe, alpha, mo, region, spec, scales)
    assert np.allclose(tf, want, rtol=1e-13, atol=0.0)
    want_p = _old_divergence_proxy(pw, eps_p, lam, pe, alpha, mo, region, spec, scales)
    assert np.allclose(tp, want_p, rtol=1e-13, atol=0.0)
    both = op.d2_estimate([pw, f], [eps_p, eps_f], pe, alpha, mo, region, spec,
                          scales=scales)
    assert [b[0] for b in both] == [
        op.d2_estimate([pw], [eps_p], pe, alpha, mo, region, spec, scales=scales)[0][0],
        op.d2_estimate([f], [eps_f], pe, alpha, mo, region, spec, scales=scales)[0][0]]
    with pytest.raises(ValueError):
        op.divergence_proxy([f, fl.PowerField(2, lam)], [eps_f, eps_p], lam, pe,
                            alpha, mo, region, spec, scales)


def test_sab_form_two_slots_matches_einsum():
    f = fl.BergmanField(3, 1, np.array([0.0, 1.0]))
    region = Region(4.0, 0.125, 4.0)
    spec = QuadSpec(order=5, t_order=4)
    z1 = np.array([[0.0, 1.0], [0.5, 0.3], [2.0, 3.0]])
    z2 = np.array([[-1.0, 0.5], [0.2, 2.0]])
    a_vec, b_vec = [0.5, 0.0], [3.0, 4.0]
    # one-hot weights and p = 1 read the form at one entry |S_ij|
    got = np.array([[op.sab_form(f, a_vec, b_vec, [z1, z2], [np.eye(3)[i], np.eye(2)[j]],
                                 1.0, region, spec) for j in range(2)] for i in range(3)])
    pts, w = _flat_nodes(region, spec)
    base = w * f.values(pts) * pts[:, -1] ** (-2 + sum(b_vec))
    kern = [((z[:, None, 0] - pts[None, :, 0]) ** 2
             + (z[:, None, 1] + pts[None, :, 1]) ** 2) ** (-(a + b) / 2)
            for z, a, b in zip((z1, z2), a_vec, b_vec)]
    want = (z1[:, 1:] ** a_vec[0]) * np.einsum("iw,jw,w->ij", *kern, base) \
        * (z2[:, 1] ** a_vec[1])[None, :]
    assert np.allclose(got, np.abs(want), rtol=1e-13, atol=0.0)


# -------------------------------------- streamed payloads and batched slots


def _same_bits(a, b):
    """Equal bit for bit, so even a zero must keep its sign."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _payload(fld):
    """The weighted payload stack: the flat layout's table, or the axisym
    builder's row blocks stitched together, _BLOCK_VALUES // n_s rows each
    (one row each when that is below one)."""
    if fld._ax is None:
        return fld._flat[1]
    nodes, pay = fld._ax
    n_uv, n_s = nodes.u.size, nodes.s.size
    step = max(1, op._BLOCK_VALUES // n_s)
    table = np.empty((pay.count, n_uv, n_s))
    for a in range(0, n_uv, step):
        block = pay.rows(a, min(a + step, n_uv))
        assert block.shape == (pay.count, min(step, n_uv - a), n_s)
        table[:, a : a + step] = block
    return table


def _old_split_stack(f, eps, lam, m, region, spec, offsets, parts):
    """The weighted payload stack as distance_split built it from full tables."""
    eps_arr = np.atleast_1d(np.asarray(eps, dtype=float))
    if f.n >= 2:
        nodes = AxisymmetricNodes(region, f.n, spec, offsets)
        gv = f.radial_values(nodes.center_radius()[:, None], nodes.s[None, :])
        s, weights = nodes.s[None, :], (nodes.w_uv[:, None], nodes.w_s)
    else:
        nodes, w = _flat_nodes(region, spec)
        gv = f.values(nodes)
        s, weights = nodes[:, -1], (w,)
    level = np.abs(gv)
    level *= s**lam
    gv *= s**m
    stack = np.empty((eps_arr.size * len(parts),) + gv.shape)
    k = 0
    for e in eps_arr:
        inside = level >= e
        for part in parts:
            np.multiply(gv, inside if part == 2 else ~inside, out=stack[k])
            k += 1
    for w in weights:
        stack *= w
    return stack


def _old_extension(g, k, region, spec, offsets):
    """extension_field as it was built from full tables."""
    if g.n >= 2:
        nodes = AxisymmetricNodes(region, g.n, spec, offsets)
        gv = g.radial_values(nodes.center_radius()[:, None], nodes.s[None, :])
        return _field_from_axisym(g.n, k, nodes, gv * nodes.s[None, :] ** k)
    axes = _flat_axes(region, spec)
    pts, _ = quad.tensor_rule(axes)
    return _field_from_flat(k, axes, g.values(pts) * pts[:, -1] ** k)


def test_streamed_split_matches_full_table_construction(monkeypatch):
    cases = [
        (_testfield(2, 3), Region(4.0, 0.125, 4.0), QuadSpec(order=4, t_order=3),
         2.0, 3, (0.0, 1.0)),
        (fl.PoissonField(1, np.array([0.0, 1.0])), Region(4.0, 0.125, 4.0),
         QuadSpec(order=5, t_order=4), 1.0, 2, (0.0,)),
    ]
    for g, region, spec, lam, m, offsets in cases:
        # the default block, then one node row per block
        for block in (op._BLOCK_VALUES, 1):
            monkeypatch.setattr(op, "_BLOCK_VALUES", block)
            for eps in ([0.05], [0.01, 0.05, 0.2]):
                for parts in ((1,), (1, 2)):
                    want = _old_split_stack(g, eps, lam, m, region, spec, offsets, parts)
                    got = _payload(op.distance_split(g, eps, lam, m, region, spec,
                                                     offsets, parts))
                    assert _same_bits(got.reshape(want.shape), want), (block, eps, parts)
            E = op.extension_field(g, m, region, spec, offsets)
            want = _payload(_old_extension(g, m, region, spec, offsets))
            assert _same_bits(_payload(E), want)


def _traced_peak(fn):
    """(fn(), the peak bytes that fn allocated beyond what was live before)."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def test_split_peak_memory_stays_near_the_payload():
    g = _testfield(4, 3)
    region, spec = Region(16.0, 2.0 ** -5, 16.0), QuadSpec(order=8, t_order=6)
    offsets = (0.0, 2.0, 4.0, 8.0)

    def stitched():
        f1 = op.distance_split(g, [0.01], 2.5, 4, region, spec, offsets, parts=(1,))
        return _payload(f1).nbytes

    stitched()  # warm caches
    payload, peak = _traced_peak(stitched)
    assert payload > 4e6  # far above the block temporaries
    # the stitched table itself, and row blocks far below it
    assert peak < 1.5 * payload


def _refined_split():
    """thm7's refined split: part 1 over its largest node set."""
    g = _testfield(4, 3)
    region = Region(16.0, 2.0 ** -5, 16.0)
    spec = QuadSpec(order=5, t_order=4, min_panel=0.25).refined()
    return op.distance_split(g, [0.01], 2.5, 4, region, spec, (0.0, 2.0, 4.0, 8.0),
                             parts=(1,))


def test_refined_split_holds_no_payload_table():
    # building stores the nodes and a payload builder, never the table
    _refined_split()  # warm caches
    fld, peak = _traced_peak(_refined_split)
    nodes, pay = fld._ax
    table = 8 * pay.count * nodes.u.size * nodes.s.size
    assert table > 3.5e7  # the 38 MiB table the split once stored
    assert peak < 0.1 * table
    held = [c.cell_contents for c in pay.rows.__closure__] + list(vars(nodes).values())
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert len(arrays) >= 5 and max(a.size for a in arrays) < nodes.u.size * nodes.s.size


def test_lattice_evaluation_holds_one_tile_set_per_height():
    fld = _refined_split()
    nodes, pay = fld._ax
    n_s = nodes.s.size
    region = Region(16.0, 2.0 ** -5, 16.0)
    # the 12 x 12 lattice of _sup_on_grid at the smoke budget
    t = np.exp(np.linspace(math.log(region.t_min * 1.01), math.log(region.t_max * 0.99), 12))
    r = np.linspace(0.0, region.x_max * 0.98, 12)
    _, leaves = op._pairwise_leaves(nodes.u.size * n_s)
    rows = max(hi - lo for lo, hi in leaves) // n_s + 2
    tiles = 8 * rows * n_s
    buffers = np.empty((rows, n_s)), np.empty((rows, n_s))
    _, tile_set = _traced_peak(lambda: kernels.BergmanRows(4, 3, 1.0 + nodes.s, rows, buffers))
    assert tile_set >= 2 * tiles  # c tau^a tiles and the tau^2 tile
    pay.rows(0, rows)  # warm caches
    _, leaf_rows = _traced_peak(lambda: pay.rows(0, rows))
    got, peak = _traced_peak(lambda: fld.radial_values(r[:, None], t[None, :]))
    assert got.shape == (1, 12, 12) and np.all(np.isfinite(got))
    # 12 tile sets, one per height, and one leaf at a time: its payload
    # rows, the two shared kernel buffers, the product buffer, and the
    # lattice's distances and leaf sums; nothing near the 38 MiB table
    bound = 12 * tile_set + leaf_rows + 3 * tiles + 8 * (rows + len(leaves)) * got.size
    assert peak < 1.1 * bound, (peak, bound)
    assert bound < 0.3 * 8 * nodes.u.size * n_s


def test_eval_axial_groups_heights_bit_for_bit(monkeypatch):
    import weakref

    g = _testfield(2, 3)
    region, spec = Region(4.0, 0.125, 4.0), QuadSpec(order=4, t_order=3)
    fld = op.distance_split(g, [0.01, 0.1], 2.0, 3, region, spec)
    # five distinct heights, unsorted, two of them at two distances each
    d = np.array([2.5, 0.0, 0.7, 1.1, 0.0, 3.9, 0.2])
    t = np.array([2.2, 0.3, 1.0, 0.3, 2.2, 0.6, 1.7])
    want = _per_point_axial(fld, d, t)
    nodes, pay = fld._ax
    n_leaves = len(op._pairwise_leaves(nodes.u.size * nodes.s.size)[1])
    built, live, most = [], [], [0]

    def rows(r0, r1):
        built.append((r0, r1))
        return pay.rows(r0, r1)

    class Counted(kernels.BergmanRows):
        def __init__(self, *args):
            super().__init__(*args)
            live.append(weakref.ref(self))
            most[0] = max(most[0], sum(ref() is not None for ref in live))

    fld._ax = (nodes, op.PayloadRows(pay.count, rows))
    monkeypatch.setattr(kernels, "BergmanRows", Counted)
    # every height in one group, then groups of 1, 2 and 3 heights (the
    # last group partial)
    for group in (op._TAU_GROUP, 1, 2, 3):
        monkeypatch.setattr(op, "_TAU_GROUP", group)
        built.clear(), live.clear()
        most[0] = 0
        assert _same_bits(fld._eval_axial(d, t), want), group
        # one tile set per height, at most one group's alive at once, and
        # the payload made once per group
        assert len(live) == 5 and most[0] == min(group, 5)
        assert len(built) == -(-5 // group) * n_leaves
    # each point's value is independent of the others in the call
    for i in range(d.size):
        assert _same_bits(fld._eval_axial(d[i : i + 1], t[i : i + 1]), want[:, i : i + 1])


# ------------------------------------------------- streamed kernel reductions


def _tree_sum(table):
    """np.sum of a table rebuilt from np.sum of each pairwise-sum leaf."""
    flat = table.ravel()
    tree, leaves = op._pairwise_leaves(flat.size)
    assert leaves[0][0] == 0 and leaves[-1][1] == flat.size
    assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
    assert max(hi - lo for lo, hi in leaves) <= max(op._BLOCK_VALUES, 128)
    return op._tree_add(tree, np.array([np.sum(flat[lo:hi]) for lo, hi in leaves]))


def test_streamed_tree_sum_equals_np_sum(monkeypatch):
    rng = np.random.default_rng(11)
    # the axisym tables of thm7 and thm5, and a table below one leaf
    shapes = [(34950, 144), (30096, 78), (26224, 66), (6235, 36), (37, 5)]
    tables = [rng.standard_normal(s) * 10.0 ** rng.uniform(-8, 8, s) for s in shapes]
    # the default leaf, the 128-value floor (a 1-value leaf never ends its
    # split), and leaves of 1000 values
    for block in (op._BLOCK_VALUES, 1, 1000):
        monkeypatch.setattr(op, "_BLOCK_VALUES", block)
        for table in tables:
            assert _same_bits(_tree_sum(table), np.sum(table)), (block, table.shape)


def test_stacked_axial_evaluation_allocates_well_under_one_table():
    g = _testfield(4, 3)
    region, spec = Region(16.0, 2.0 ** -5, 16.0), QuadSpec(order=8, t_order=6)
    fld = op.distance_split(g, [0.01, 0.1], 2.5, 4, region, spec, (0.0, 2.0, 4.0, 8.0))
    stack = _payload(fld)
    table = stack[0].nbytes
    assert stack.shape[0] == 4 and table > 8e6
    del stack
    d, t = np.array([0.5, 3.0]), np.array([1.0, 2.0])
    want = fld._eval_axial(d, t)  # warm caches
    got, peak = _traced_peak(lambda: fld._eval_axial(d, t))
    assert _same_bits(got, want)
    # a full kernel table and a full product table took 2.3 tables
    assert peak < 0.4 * table


def _old_sab_table(f, a_vec, b_vec, z_slots, region, spec):
    """The (P_1, P_2) table of S that the form once reduced, built as it was:
    slot-0 blocks of at least 128 rows against the whole slot-1 kernel."""
    pts, w = _flat_nodes(region, spec)
    base = w * f.values(pts) * pts[:, -1] ** (-2 + float(np.sum(b_vec)))
    rows = max(1, op._BLOCK_VALUES // pts.shape[0])
    expo = [-(a + b) / 2 for a, b in zip(a_vec, b_vec)]
    z0, z1 = z_slots
    kern1 = op._slot_kernel(z1, pts, expo[1], rows)
    out = np.empty((z0.shape[0], z1.shape[0]))
    prows = max(rows, 128)
    for a in range(0, z0.shape[0], prows):
        blk = slice(a, a + prows)
        k0 = op._slot_kernel(z0[blk], pts, expo[0], rows)
        k0 *= base
        np.matmul(k0, kern1.T, out=out[blk])
    out *= z0[:, 1:] ** a_vec[0]
    out *= (z1[:, 1] ** a_vec[1])[None, :]
    return out


def _prop1_slot_rule(scale):
    """prop1's slot points and weights on its slot region doubled `scale` times."""
    slot = Region(32.0, 2.0 ** -6, 32.0).scaled(2.0 ** scale)
    return _flat_nodes(slot, QuadSpec(order=3, t_order=2, min_panel=0.5))


@pytest.mark.parametrize("slot_scale, inner_scale, shape", [
    (0, 0, (924, 1470)), (1, 0, (1248, 1470)), (0, 1, (924, 2160))],
    ids=["924x1470", "1248x1470", "924x2160"])
@pytest.mark.parametrize("a_vec, p", [
    ((0.0, 0.0), 1.0),     # prop1's defaults: one shared slot kernel
    ((0.0, 0.0), 1.5),
    ((-0.3, 0.2), 2.0),    # a kernel per slot
], ids=["defaults", "p1.5", "a-split-p2"])
def test_sab_form_matches_the_full_table_reduction(slot_scale, inner_scale, shape,
                                                   a_vec, p, record_property):
    # prop1's three calls at smoke: its slot and inner regions, each doubled once
    f = fl.BergmanField(9, 1, np.array([0.0, 1.0]))
    z, zw = _prop1_slot_rule(slot_scale)
    region = Region(8.0, 2.0 ** -4, 8.0).scaled(2.0 ** inner_scale)
    spec = QuadSpec(order=5, t_order=3)
    assert (z.shape[0], _flat_nodes(region, spec)[0].shape[0]) == shape
    b_vec = (5.0, 5.0)
    w1 = w2 = zw * z[:, -1] ** 0.5  # prop1's s1 = s2 = 0.5
    table = _old_sab_table(f, a_vec, b_vec, [z, z], region, spec)
    np.abs(table, out=table)
    table **= p
    want = float(w1 @ table @ w2)
    got = op.sab_form(f, a_vec, b_vec, [z, z], [w1, w2], p, region, spec)
    record_property("bit_for_bit", got == want)  # in the junit XML
    assert abs(got - want) <= 4 * np.spacing(want), (got, want)


def test_shared_slot_sab_form_allocates_under_half_a_table():
    f = fl.BergmanField(9, 1, np.array([0.0, 1.0]))
    z, zw = _prop1_slot_rule(0)
    region, spec = Region(8.0, 2.0 ** -4, 8.0), QuadSpec(order=5, t_order=3)
    args = ([0.0, 0.0], [5.0, 5.0], [z, z], [zw, zw], 1.0, region, spec)
    pts, _ = _flat_nodes(region, spec)
    kernel = 8 * z.shape[0] * pts.shape[0]
    table = 8 * z.shape[0] ** 2
    assert table > 6e6
    want = op.sab_form(f, *args)  # warm caches
    got, peak = _traced_peak(lambda: op.sab_form(f, *args))
    assert got == want
    # beyond the one slot kernel both slots share: the (P, P) table of S
    # and its reduction took more than a table
    assert peak - kernel < 0.5 * table


# ------------------------------------------- factored flat-layout kernel tables


def _old_eval_flat(fld, pts):
    """The flat-layout loop over full (chunk, N) tables of D and tau."""
    (x, s), wpay = fld._flat
    nodes, _ = quad.tensor_rule(((x, np.ones(x.size)), (s, np.ones(s.size))))
    out = np.empty((wpay.shape[0], pts.shape[0]))
    chunk = max(1, op._BLOCK_VALUES // max(1, nodes.shape[0]))
    for a in range(0, pts.shape[0], chunk):
        blk = pts[a : a + chunk]
        diff = blk[:, None, :-1] - nodes[None, :, :-1]
        D = np.sum(diff * diff, axis=2)
        tau = blk[:, None, -1] + nodes[None, :, -1]
        K = kernels.bergman_from_sq(fld.k, fld.n, D, tau)
        for j, w in enumerate(wpay):
            out[j, a : a + chunk] = K @ w
    return out


def test_factored_eval_flat_matches_full_tables(monkeypatch):
    rng = np.random.default_rng(5)
    region, spec = Region(4.0, 0.125, 4.0), QuadSpec(order=5, t_order=4)
    axes = _flat_axes(region, spec)
    pts = np.column_stack([rng.uniform(-5.0, 5.0, 300), rng.uniform(0.01, 6.0, 300)])
    pts[:3] = [[0.0, 1.0], [axes[0][0][7], 0.5], [4.0, 4.0]]  # D = 0 on a node
    g = fl.PoissonField(1, np.array([0.0, 1.0]))
    fields = [
        op.extension_field(fl.BergmanField(2, 1, (0.0, 1.0)), 2, region, spec),
        op.distance_split(g, [0.02, 0.1], 1.0, 2, region, spec),
        _field_from_flat(0, axes, rng.standard_normal((3, axes[0][0].size * axes[1][0].size))),
        # a 1 x n_s and a 1 x 1 tensor
        _field_from_flat(5, (([0.3], [2.0]), axes[1]), rng.standard_normal(axes[1][0].size)),
        _field_from_flat(1, (([0.3], [2.0]), ([0.7], [0.5])), [1.5]),
    ]
    # the default block (the 300 points span several chunks), a block that
    # leaves a partial last chunk, and one below the node count: one point
    # per chunk
    for block in (op._BLOCK_VALUES, 5000, 7):
        monkeypatch.setattr(op, "_BLOCK_VALUES", block)
        for fld in fields:
            want = _old_eval_flat(fld, pts)
            assert _same_bits(fld._eval_flat(pts), want), (block, fld.label)
            assert _same_bits(fld.values(pts), want if fld.stacked else want[0])
    # a node count above the default block: one point per chunk
    monkeypatch.undo()
    x, s = np.linspace(-4.0, 4.0, 301), np.geomspace(0.01, 8.0, 120)
    big = _field_from_flat(3, ((x, np.full(301, 0.02)), (s, s / 40.0)),
                           rng.standard_normal((2, x.size * s.size)))
    assert x.size * s.size > op._BLOCK_VALUES
    assert _same_bits(big._eval_flat(pts[:4]), _old_eval_flat(big, pts[:4]))


# ------------------------------------- one kernel evaluation per distinct argument


def test_eval_axial_evaluates_each_distinct_point_once(monkeypatch):
    g = _testfield(2, 3)
    region, spec = Region(4.0, 0.125, 4.0), QuadSpec(order=4, t_order=3)
    fld = op.distance_split(g, [0.01, 0.1], 2.0, 3, region, spec)
    # 9 points, 5 distinct (d, t) pairs: repeats, a shared height at two
    # distances and a shared distance at two heights
    d = np.array([0.7, 0.0, 0.7, 2.5, 0.0, 0.7, 2.5, 0.7, 1.1])
    t = np.array([1.0, 0.3, 1.0, 2.2, 0.3, 2.2, 2.2, 1.0, 1.0])
    want = _per_point_axial(fld, d, t)  # the per-point loop, with no dedupe
    blocks = []

    class Counted(kernels.BergmanRows):
        def block(self, D):
            blocks.append(len(D))
            return super().block(D)

    monkeypatch.setattr(kernels, "BergmanRows", Counted)
    assert _same_bits(fld._eval_axial(d, t), want)
    nodes = fld._ax[0]
    n_leaves = len(op._pairwise_leaves(nodes.u.size * nodes.s.size)[1])
    assert len(blocks) == 5 * n_leaves
    # through values(): the axis distance of each point, then the pairs
    pts = np.column_stack([d, np.zeros_like(d), np.zeros_like(d), t])
    assert _same_bits(fld.values(pts), want)


def _all_tau_divergence_tables(fields, grids, lam, p, alpha, m_order, region, spec, scales):
    """divergence_proxy's I tables by its loop before the distinct-tau
    kernel rows: one kernel row over every (s, t) pair, s slowest."""
    n, scale = fields[0].n, fields[0].scale
    table = np.zeros((sum(e.size for e in grids), len(scales)))
    for si, R in enumerate(scales):
        reg = Region(region.x_max * R, region.t_min, region.t_max * R)
        nodes = AxisymmetricNodes(reg, n, spec)
        svals = nodes.s
        masks = np.concatenate([
            (svals[None, :] ** lam * np.abs(g.radial_values(
                nodes.center_radius()[:, None], svals[None, :])))[None]
            >= e[:, None, None]
            for g, e in zip(fields, grids)
        ])
        wgt = nodes.w_uv[:, None] * nodes.w_s[None, :] * svals[None, :] ** (m_order - lam)
        A = (masks * wgt).reshape(masks.shape[0], -1)
        t, wt = quad.t_quadrature(reg, spec)
        r, wr = quad.radial_quadrature(n, scale, reg.x_max, spec)
        n_s = svals.size
        rows = max(1, op._BLOCK_VALUES // (n_s * t.size))
        q = kernels.BergmanRows(m_order, n, t[None, :] + svals[:, None], rows)
        inner = np.zeros((A.shape[0], r.size, t.size))
        for i, ri in enumerate(r):
            D = nodes.dist_sq_to(ri)
            for a in range(0, D.size, rows):
                kern = np.abs(q.block(D[a : a + rows]))
                inner[:, i, :] += A[:, a * n_s : (a + rows) * n_s] @ kern.reshape(-1, t.size)
        table[:, si] = (wr @ inner**p) @ (wt * t**alpha)
    return table


def test_d2_estimate_on_distinct_tau_matches_the_all_pairs_loop():
    n, pe, alpha, mo = 2, 1.0, -0.5, 4
    lam = (alpha + n + 1) / pe
    fields = [_testfield(4, n), fl.PowerField(n, lam)]
    grids = [np.array([0.05, 0.2, 1e9]), np.array([0.5, 0.999, 2.0])]
    region, spec, scales = Region(4.0, 0.125, 4.0), QuadSpec(order=4, t_order=3), (1.0, 2.0)
    got = op.d2_estimate(fields, grids, pe, alpha, mo, region, spec, scales=scales)
    want = np.split(_all_tau_divergence_tables(fields, grids, lam, pe, alpha, mo, region,
                                               spec, scales), [3])
    for (_, _, table, _), table_want in zip(got, want):
        assert _same_bits(table, table_want)
