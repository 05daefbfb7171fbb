"""Trace and extension operators, kernel integral operators, and the
distance machinery on the upper half-space.

The extension of a boundary-space function g to m slots is
    f(z_1, .., z_m) = integral Q_k((z_1 + .. + z_m)/m, w) g(w) s^k dw,
which depends on the slots only through their mean, so it is represented
by a single-variable kernel-integral field evaluated at the mean.  Slot
symmetry is exact by construction and harmonicity in each slot follows
from harmonicity of the represented field under the affine substitution.

Truncated integrals use either flat tensor nodes (n = 1) or the
axisymmetric (u, v, s) reduction (n >= 2, payload radial about a point
on the axis).  All operators take an explicit Region and QuadSpec.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from . import quadrature as quad
from .fields import Field
from .geometry import Region
from .norms import bergman_norm
from .quadrature import AxisymmetricNodes, QuadSpec


# Kernel values per block in every kernel loop: 32k float64 values, so
# each temporary of a block (256 KB) stays in cache.
_BLOCK_VALUES = 1 << 15


def _pairwise_leaves(n):
    """numpy's pairwise-sum tree over n values, cut into leaves.

    np.sum of a contiguous run of m > 128 values adds the sum of its
    first h values to the sum of the rest, h = m // 2 less m // 2 % 8, and
    adds shorter runs in one unrolled loop (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 4.2).  Runs of at most
    _BLOCK_VALUES values, and never fewer than 128, are leaves here, so
    np.sum of a leaf is numpy's sum of that run.  Returns (tree, leaves):
    leaves lists each leaf's (lo, hi) in order, and the tree is a leaf's
    index or a (left, right) pair of trees.
    """
    leaf = max(_BLOCK_VALUES, 128)
    leaves = []

    def split(lo, hi):
        if hi - lo <= leaf:
            leaves.append((lo, hi))
            return len(leaves) - 1
        half = (hi - lo) // 2
        mid = lo + half - half % 8
        return split(lo, mid), split(mid, hi)

    return split(0, n), leaves


def _tree_add(tree, sums):
    """Add the leaf sums, sums[leaf index], in the order of the tree."""
    if not isinstance(tree, tuple):
        return sums[tree]
    return _tree_add(tree[0], sums) + _tree_add(tree[1], sums)


class KernelIntegralField(Field):
    """z |-> sum_i W_i Q_k(z, w_i) payload_i over stored nodes.

    Built by _weighted from payloads already multiplied by the node
    weights W_i, in one of two layouts: "flat" (n = 1: node axes x (n_x,)
    and s (n_s,), payload (n_x n_s,) over their tensor in "ij" order) and
    "axisym" (AxisymmetricNodes, payload (n_uv, n_s)), radial about the
    origin.  Both evaluate only at finite points with t > 0.

    The payload may also be a stack, (P, n_x n_s) or (P, n_uv, n_s): the
    P fields then share every kernel value, and values() and
    radial_values() carry a leading axis of length P.  Each stacked value
    equals, bit for bit, the value of the field built from that payload
    alone.

    No kernel table is built at full size.  The flat layout evaluates a
    block of points at a time; the axisym layout reduces each point's
    kernel-payload products as they are made, leaf by leaf of numpy's
    pairwise summation (see _eval_axial), so an evaluation needs a few
    blocks of _BLOCK_VALUES values beyond the payload.
    """

    harmonic = True  # harmonic in z: finite combination of Q_k(., w_i)

    def __init__(self, n, k_order, label="kernel-integral"):
        self.n = n
        self.k = k_order
        self.label = label
        self.stacked = False
        self._flat = None
        self._ax = None

    @classmethod
    def _weighted(cls, n, k_order, nodes, wpay, stacked, label):
        """Field over payloads already multiplied by the node weights.

        nodes: AxisymmetricNodes, or the (x, s) node axes of the flat layout.
        """
        f = cls(n, k_order, label)
        f.stacked = stacked
        if isinstance(nodes, AxisymmetricNodes):
            f.radial_center = np.zeros(n)
            f._ax = (nodes, wpay.reshape((-1,) + wpay.shape[-2:]))
        else:
            f._flat = (nodes, wpay.reshape(-1, nodes[0].size * nodes[1].size))
        return f

    def _shaped(self, out, shape):
        """(P, m) results to (P, *shape), or to shape for a single payload."""
        return out.reshape(out.shape[:1] + shape) if self.stacked else out[0].reshape(shape)

    def values(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1:] != (self.n + 1,):
            raise ValueError(f"points must have shape (..., {self.n + 1})")
        flat = pts.reshape(-1, pts.shape[-1])
        _check_points(flat[:, :-1], flat[:, -1])
        if self._ax is not None:
            d = np.linalg.norm(flat[:, :-1], axis=1)
            out = self._eval_axial(d, flat[:, -1])
        else:
            out = self._eval_flat(flat)
        return self._shaped(out, pts.shape[:-1])

    def radial_values(self, r, t):
        if self._ax is None:
            raise NotImplementedError("radial path needs axisym nodes")
        R, T = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
        _check_points(R, T)
        out = self._eval_axial(R.ravel(), T.ravel())
        return self._shaped(out, R.shape)

    def _eval_axial(self, d, t):
        """(P, m) values at axis distances d and heights t.

        Per point, the kernel-payload products over all (u, v, s) nodes
        are never stored at full size.  np.sum of the full table would add
        them by pairwise summation; the table is cut into the leaves of
        that summation tree (_pairwise_leaves), each leaf's products are
        made from the kernel rows that cover it and added by np.sum, and
        the leaf sums are added back in tree order.  Every payload of a
        stack shares a leaf's kernel values, and each value equals the
        np.sum of the full table bit for bit, whatever the block size.
        """
        nodes, wpay = self._ax
        n_pay, n_uv, n_s = wpay.shape
        tree, leaves = _pairwise_leaves(n_uv * n_s)
        longest = max(hi - lo for lo, hi in leaves)
        rows = longest // n_s + 2  # most rows one leaf can touch
        wflat = wpay.reshape(n_pay, -1)
        prod = np.empty(longest)
        sums = np.empty((len(leaves), n_pay))
        out = np.empty((n_pay, d.size))
        for i in range(d.size):
            D = nodes.dist_sq_to(d[i])
            q = kernels.BergmanRows(self.k, self.n, t[i] + nodes.s, rows)
            for li, (lo, hi) in enumerate(leaves):
                r0, r1 = lo // n_s, -(-hi // n_s)  # the rows the leaf touches
                K = q.block(D[r0:r1]).ravel()[lo - r0 * n_s : hi - r0 * n_s]
                part = prod[: hi - lo]
                for j in range(n_pay):
                    np.multiply(K, wflat[j, lo:hi], out=part)
                    sums[li, j] = np.sum(part)
            out[:, i] = _tree_add(tree, sums)
        return out

    def _eval_flat(self, pts):
        """(P, m) values at points (m, 2), a chunk of points at a time.

        D = (x - y)^2 varies along the x nodes only and tau = t + s along
        the s nodes only, so the c tau^a and D^b terms of bergman_from_sq
        stay (chunk, 1, n_s) and (chunk, n_x, 1); only the products of both
        and the power of D + tau^2 are full size.  Each value equals, bit for
        bit, that of full (chunk, n_x n_s) tables of D and tau.
        """
        (x, s), wpay = self._flat
        out = np.empty((wpay.shape[0], pts.shape[0]))
        # callers such as the cubes path of bergman_norm pass many points
        chunk = max(1, _BLOCK_VALUES // wpay.shape[1])
        for a in range(0, pts.shape[0], chunk):
            blk = pts[a : a + chunk]
            diff = blk[:, 0, None, None] - x[None, :, None]
            tau = blk[:, 1, None, None] + s[None, None, :]
            K = kernels.bergman_from_sq(self.k, self.n, diff * diff, tau)
            K = K.reshape(blk.shape[0], -1)
            for j, w in enumerate(wpay):
                out[j, a : a + chunk] = K @ w
        return out


def _check_points(coords, t):
    """Reject evaluation points that are not finite or have t <= 0."""
    if not (np.isfinite(coords).all() and np.isfinite(t).all() and (t > 0).all()):
        raise ValueError("evaluation points must be finite with t > 0")


def _payload_stack(g, k_order: int, region: Region, spec: QuadSpec,
                   offsets=(0.0,), eps=None, lam: float = 0.0, parts=()):
    """Nodes and weighted payloads for integrating kernels against g.

    Without eps the stack holds the one payload g s^k.  With a sequence
    eps it holds, for each eps in turn and each part in `parts`, g s^k on
    the complement (part 1) or on the superlevel set (part 2) of
    {s^lam |g| >= eps}.  Every payload is multiplied by the node weights.
    The stack is filled one block of node rows at a time, so nothing else
    is built at its size.

    n >= 2 uses AxisymmetricNodes, one row per (u, v) node and one column
    per s node, and needs g radial about the origin; `offsets` lists the
    axis positions where the spatial grid refines, so keep them near the
    radii at which the field will be evaluated.  n = 1 uses the flat
    layout: the node axes of box_axis_quadrature (rows) and t_quadrature
    (columns), weighted by their tensor_rule weights.
    """
    if g.n >= 2:
        if not g.is_radial or np.any(np.asarray(g.radial_center) != 0):
            raise ValueError("n >= 2 integration needs g radial about the origin")
        nodes = AxisymmetricNodes(region, g.n, spec, offsets)
        radius, s_row = nodes.center_radius()[:, None], nodes.s[None, :]
        shape = (radius.size, s_row.size)

        def block(blk):
            return g.radial_values(radius[blk], s_row), s_row, (nodes.w_uv[blk, None], nodes.w_s)
    else:
        axes = (quad.box_axis_quadrature(region, spec), quad.t_quadrature(region, spec))
        nodes = tuple(x for x, _ in axes)
        shape = tuple(x.size for x in nodes)
        pts, w = quad.tensor_rule(axes)
        pts, w = pts.reshape(shape + (2,)), w.reshape(shape)

        def block(blk):
            return g.values(pts[blk]), nodes[1], (w[blk],)
    stack = np.empty((1 if eps is None else len(eps) * len(parts),) + shape)
    rows = max(1, _BLOCK_VALUES // math.prod(shape[1:]))
    for a in range(0, shape[0], rows):
        blk = slice(a, a + rows)
        gv, s, weights = block(blk)
        out = stack[:, blk]
        if eps is None:
            np.multiply(gv, s**k_order, out=out[0])
        else:
            level = np.abs(gv)
            level *= s**lam
            gv *= s**k_order  # gv is a fresh evaluation: reuse it for g s^k
            k = 0
            for e in eps:
                inside = level >= e
                for part in parts:
                    np.multiply(gv, inside if part == 2 else ~inside, out=out[k])
                    k += 1
        for wt in weights:
            out *= wt
    return nodes, stack


def extension_field(g, k_order: int, region: Region, spec: QuadSpec,
                    offsets=(0.0,)) -> KernelIntegralField:
    """The mean-slot representative E(zeta) = int Q_k(zeta, w) g(w) s^k dw."""
    nodes, stack = _payload_stack(g, k_order, region, spec, offsets)
    return KernelIntegralField._weighted(
        g.n, k_order, nodes, stack[0], False, f"extend{k_order}({g.label})"
    )


class MeanExtension:
    """m-slot extension of g; all slot structure factors through the mean."""

    def __init__(self, g, m: int, k_order: int, region: Region, spec: QuadSpec,
                 offsets=(0.0,)):
        if m < 1:
            raise ValueError("need at least one slot")
        if k_order < 0:
            raise ValueError("kernel order must be >= 0")
        self.m = m
        self.g = g
        self.field = extension_field(g, k_order, region, spec, offsets)

    def values_multi(self, z_list):
        """Evaluate at m slot arrays, each (..., n+1)."""
        if len(z_list) != self.m:
            raise ValueError("wrong number of slots")
        mean = sum(np.asarray(z, dtype=float) for z in z_list) / self.m
        return self.field.values(mean)

    def trace(self) -> Field:
        """Tr f (z) = f(z, .., z): the mean collapses to z itself."""
        return self.field


class ProductMultiField:
    """f(z_1, .., z_m) = prod_j f_j(z_j) for single-variable factors."""

    def __init__(self, factors):
        if not factors:
            raise ValueError("need at least one factor")
        if len({f.n for f in factors}) != 1:
            raise ValueError("factors live on different half-spaces")
        self.factors = list(factors)
        self.m = len(factors)

    def values_multi(self, z_list):
        if len(z_list) != self.m:
            raise ValueError("wrong number of slots")
        out = 1.0
        for f, z in zip(self.factors, z_list):
            out = out * f.values(z)
        return out

    def trace(self) -> Field:
        from .fields import ProductField

        out = self.factors[0]
        for f in self.factors[1:]:
            out = ProductField(out, f)
        return out


def distance_split(f, eps, lam: float, m_order: int, region: Region,
                   spec: QuadSpec, offsets=(0.0,), parts=(1, 2)):
    """Split f = f1 + f2 through the reproducing integral at order m_order.

    f1 integrates Q_m f s^m over the complement of V_{eps,lam} inside the
    region, f2 over V_{eps,lam}; both are harmonic.  Requires
    m_order > lam - 1 so the f1 bound has an integrable majorant;
    theorem-level drivers additionally enforce m_order > alpha/p.
    `offsets` refines the spatial grid near the radii where the split
    fields will be evaluated.

    Only the parts named in `parts` (1 for f1, 2 for f2) are built, for
    each eps of the sequence eps.  Returns one stacked KernelIntegralField
    whose payloads share every kernel value: its payload e * len(parts) + j
    is part parts[j] at eps[e].
    """
    if m_order <= lam - 1:
        raise ValueError("need m_order > lam - 1")
    if not parts or not set(parts) <= {1, 2}:
        raise ValueError("parts must be drawn from (1, 2)")
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1:
        raise ValueError("eps must be a sequence of levels")
    nodes, stack = _payload_stack(f, m_order, region, spec, offsets, eps, lam, parts)
    return KernelIntegralField._weighted(
        f.n, m_order, nodes, stack, True, f"split({f.label})"
    )


def divergence_proxy(
    fields, eps_values, lam: float, p: float, alpha: float, m_order: int,
    region: Region, spec: QuadSpec, scales=(1.0, 2.0, 4.0),
):
    """Truncated inner-outer integrals of the distance criterion.

    fields is a sequence of fields f, radial about the origin, with the
    same n and scale (which fix every node and the kernel tensor), and
    eps_values one eps grid per field.  For each f, each eps of its grid
    and each region scale R computes
        I(eps, R) = int_{region_R} ( int_{V cap region_R}
                     |Q_m(z, w)| s^(m - lam) dw )^p t^alpha dz
    with V the superlevel set of f.  All fields share one kernel
    evaluation.  Returns a list with one (I table, growth table) per
    field: growth[eps][i] = I(eps, scale_{i+1}) / I(eps, scale_i), the
    region-doubling divergence proxy.  Regions scale outward only (x_max
    and t_max); superlevel sets sit at s bounded away from 0, so the band
    below t_min is a fixed convergent layer that would only blur the
    growth signal.
    """
    grids = [np.asarray(e, dtype=float).ravel() for e in eps_values]
    if len(grids) != len(fields):
        raise ValueError("need one eps grid per field")
    n, scale = fields[0].n, fields[0].scale
    if any(g.n != n or g.scale != scale for g in fields):
        raise ValueError("fields must share n and scale")
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
        # inner integrals of all eps at once: masked weights times |Q|
        A = (masks * wgt).reshape(masks.shape[0], -1)
        # outer grid: radial x layered t over the same region
        t, wt = quad.t_quadrature(reg, spec)
        r, wr = quad.radial_quadrature(scale, reg.x_max, spec)
        surf = quad.sphere_area(n) * r ** (n - 1)
        n_s = svals.size
        rows = max(1, _BLOCK_VALUES // (n_s * t.size))
        # one kernel row per (u, v) node: all (s, t) pairs, s slowest
        q = kernels.BergmanRows(m_order, n, t[None, :] + svals[:, None], rows)
        inner = np.zeros((A.shape[0], r.size, t.size))
        for i, ri in enumerate(r):
            D = nodes.dist_sq_to(ri)
            for a in range(0, D.size, rows):
                kern = np.abs(q.block(D[a : a + rows]))
                inner[:, i, :] += A[:, a * n_s : (a + rows) * n_s] @ kern.reshape(-1, t.size)
        table[:, si] = ((wr * surf) @ inner**p) @ (wt * t**alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = table[:, 1:] / table[:, :-1]
    growth[table[:, :-1] == 0] = 1.0
    growth[(table[:, :-1] == 0) & (table[:, 1:] > 0)] = np.inf
    bounds = np.cumsum([e.size for e in grids])[:-1]
    return list(zip(np.split(table, bounds), np.split(growth, bounds)))


def d2_estimate(
    fields, eps_values, p: float, alpha: float, m_order: int,
    region: Region, spec: QuadSpec, threshold: float = 1.2,
    scales=(1.0, 2.0, 4.0),
):
    """Per field, the smallest grid eps whose truncated integral stops
    growing.

    Like divergence_proxy, takes a sequence of fields with one eps grid
    each, which share the kernel evaluation.  lam is pinned to
    (alpha + n + 1)/p.  An eps is classified divergent when the last
    region-doubling growth factor is >= threshold.  Returns a list with
    one (d2, per-eps classification, I table, growth table) per field.
    """
    lam = (alpha + fields[0].n + 1) / p
    if m_order <= max(lam - 1, alpha / p):
        raise ValueError("need m_order > max(lam - 1, alpha/p)")
    grids = [np.sort(np.asarray(e, dtype=float).ravel()) for e in eps_values]
    parts = divergence_proxy(
        fields, grids, lam, p, alpha, m_order, region, spec, scales=scales
    )
    out = []
    for e, (table, growth) in zip(grids, parts):
        divergent = growth[:, -1] >= threshold
        finite = np.nonzero(~divergent)[0]
        d2 = float(e[finite[0]]) if finite.size else float("inf")
        out.append((d2, divergent, table, growth))
    return out


def sab_apply(f, a_vec, b_vec, z_slots, region: Region, spec: QuadSpec):
    """Product-kernel operator on m slots, n = 1 only.

    (S f)(z_1..z_m) = prod t_j^(a_j) *
        int f(w) s^(-n-1+sum b) prod_j |z_j - wbar|^(-(a_j+b_j)) dw
    z_slots: list of m arrays of points (P_j, 2).  Returns the tensor of
    values with shape (P_1, .., P_m).
    """
    if f.n != 1:
        raise ValueError("product-kernel operator implemented for n = 1")
    m = len(a_vec)
    if len(b_vec) != m or len(z_slots) != m:
        raise ValueError("slot count mismatch")
    pts, w = quad.tensor_rule([quad.box_axis_quadrature(region, spec),
                               quad.t_quadrature(region, spec)])
    fv = f.values(pts)
    base = w * fv * pts[:, -1] ** (-2 + float(np.sum(b_vec)))
    z_slots = [np.asarray(z, dtype=float) for z in z_slots]
    rows = max(1, _BLOCK_VALUES // pts.shape[0])
    expo = [-(a + b) / 2 for a, b in zip(a_vec, b_vec)]
    t_pow = [z[:, 1] ** a for z, a in zip(z_slots, a_vec)]
    if m == 1:
        out = _slot_kernel(z_slots[0], pts, expo[0], rows) @ base
        out *= t_pow[0]
        return out
    if m != 2:
        raise ValueError("m <= 2 supported")
    z0, z1 = z_slots
    kern1 = _slot_kernel(z1, pts, expo[1], rows)
    shared = expo[0] == expo[1] and np.array_equal(z0, z1)
    out = np.empty((z0.shape[0], z1.shape[0]))
    # every matmul packs kern1 anew: blocks of at least 128 slot-0 rows
    # keep that packing a small share of the matmul's arithmetic
    prows = max(rows, 128)
    for a in range(0, z0.shape[0], prows):
        blk = slice(a, a + prows)
        if shared:
            k0 = kern1[blk] * base
        else:
            k0 = _slot_kernel(z0[blk], pts, expo[0], rows)
            k0 *= base
        np.matmul(k0, kern1.T, out=out[blk])
    out *= t_pow[0][:, None]
    out *= t_pow[1][None, :]
    return out


def _slot_kernel(z, pts, expo, rows):
    """|z_i - wbar_k|^(2 expo) for slot points z (P, 2) and nodes pts (N, 2),
    made `rows` slot points at a time; equal, bit for bit, to the one
    broadcast expression over all of z."""
    out = np.empty((z.shape[0], pts.shape[0]))
    for a in range(0, z.shape[0], rows):
        blk = z[a : a + rows]
        dsq = (blk[:, None, 0] - pts[None, :, 0]) ** 2
        dsq += (blk[:, None, 1] + pts[None, :, 1]) ** 2
        out[a : a + rows] = dsq ** expo
    return out


def trace_product_norm_p(multi, p: float, s_vec, region: Region, spec: QuadSpec):
    """Both sides of the trace inequality for an m-slot field.

    LHS = int |Tr f|^p dm_lam over the region, lam = (m-1)(n+1) + sum s.
    RHS = the product of slot integrals: exact factorization for product
    fields; mean-variable reduction for mean extensions (n <= 2).
    Returns (lhs, rhs).
    """
    m = multi.m
    s_vec = list(s_vec)
    tr = multi.trace()
    n = tr.n
    lam = (m - 1) * (n + 1) + float(np.sum(s_vec))
    lhs = bergman_norm(tr, p, lam, region, spec) ** p
    if isinstance(multi, ProductMultiField):
        rhs = 1.0
        for f, s in zip(multi.factors, s_vec):
            rhs *= bergman_norm(f, p, s, region, spec) ** p
        return lhs, rhs
    if isinstance(multi, MeanExtension):
        if m == 1:
            return lhs, bergman_norm(multi.field, p, s_vec[0], region, spec) ** p
        if m != 2 or n > 2:
            raise ValueError("mean-extension slot integral implemented for m=2, n<=2")
        return lhs, _mean_slot_integral_m2(multi.field, p, s_vec, region, spec)
    raise TypeError("unsupported multi-variable field")


def _mean_slot_integral_m2(E, p: float, s_vec, region: Region, spec: QuadSpec):
    """int int |E((z1+z2)/2)|^p dm_{s1}(z1) dm_{s2}(z2), n <= 2.

    The x-integrals collapse: with u = (x1+x2)/2 the slot box [-X, X]^n
    pairs contribute the overlap volume prod_i (2X - 2|u_i|).
    """
    n = E.n
    X = region.x_max
    t, wt = quad.t_quadrature(region, spec)
    taus = 0.5 * (t[:, None] + t[None, :])  # mean heights over t-pairs
    U, wU = quad.tensor_rule([quad.box_axis_quadrature(region, spec)] * n)
    overlap = np.prod(2 * X - 2 * np.abs(U), axis=1)
    taus_flat = taus.ravel()
    if E._ax is not None:
        d = np.linalg.norm(U, axis=1)
        vals = np.abs(E.radial_values(d[:, None], taus_flat[None, :])) ** p
    else:
        # flat layout (n = 1): evaluate on the (u, tau) product directly
        P = np.column_stack(
            [np.repeat(U[:, 0], taus_flat.size), np.tile(taus_flat, U.shape[0])]
        )
        vals = np.abs(E.values(P)).reshape(U.shape[0], taus_flat.size) ** p
    tw1 = wt * t ** s_vec[0]
    tw2 = wt * t ** s_vec[1]
    tpair = np.outer(tw1, tw2).ravel()
    return float((wU * overlap) @ vals @ tpair)


def sup_product_ratio(multi: MeanExtension, s_vec, g_sup: float, pairs) -> float:
    """sup over slot samples of |f(z_1..z_m)| prod t_j^(s_j) / ||g||_sup.

    pairs: the samples, each a list of m slot points; they are evaluated
    together, one point per sample in each slot array.
    """
    pairs = [[np.asarray(z, dtype=float) for z in z_list] for z_list in pairs]
    vals = multi.values_multi([np.stack(slot) for slot in zip(*pairs)])
    best = 0.0
    for val, z_list in zip(vals, pairs):
        v = abs(float(val))
        for z, s in zip(z_list, s_vec):
            v *= float(np.asarray(z)[-1]) ** s
        best = max(best, v)
    return best / g_sup
