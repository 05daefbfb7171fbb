"""Extension operators, kernel integral operators, and the distance
machinery on the upper half-space.

The extension of a boundary-space function g to m slots is
    f(z_1, .., z_m) = integral Q_k((z_1 + .. + z_m)/m, w) g(w) s^k dw,
which depends on the slots only through their mean.  extension_field
builds the single-variable field E(zeta) of that integral: f is E at the
slots' mean, its trace f(z, .., z) is E, slot symmetry is exact by
construction, and harmonicity in each slot follows from harmonicity of E
under the affine substitution.  mean_slot_integral gives the slot side of
the two-slot trace inequality on the half-plane.  sab_form reduces the
two-slot product-kernel operator S to its weighted form
sum_ij w_1i |S_ij|^p w_2j one block of slot-0 rows at a time, never
holding the (P_1, P_2) table of S.

Truncated integrals use either flat tensor nodes (n = 1) or the
axisymmetric (u, v, s) reduction (n >= 2, payload radial about a point
on the axis).  A flat field stores its payload table.  An axisymmetric
field stores its nodes and a payload builder and makes the payload leaf
by leaf at each evaluation: it holds no array of n_uv n_s values, but
each call, and each group of _TAU_GROUP distinct heights in a call, makes
the payload again, so evaluate such a field in as few calls as the
caller allows.  All operators take an explicit Region and QuadSpec.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from . import quadrature as quad
from .fields import Field
from .geometry import Region, half_space_points
from .quadrature import AxisymmetricNodes, QuadSpec
from .util import check_positive


# Kernel values per block in every kernel loop: 32k float64 values, so
# each temporary of a block (256 KB) stays in cache.
_BLOCK_VALUES = 1 << 15

# Distinct heights whose kernel tiles an axisym evaluation holds at once
# (up to about 1 MB each at order 4 and 144 s nodes).
_TAU_GROUP = 16


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


class PayloadRows(NamedTuple):
    """The weighted payloads of the axisym layout, made on request.

    rows(r0, r1) returns a fresh (count, r1 - r0, n_s) stack over the
    (u, v) node rows r0:r1; every row has the same bits whichever block it
    is made in.
    """

    count: int
    rows: Callable


class KernelIntegralField(Field):
    """z |-> sum_i W_i Q_k(z, w_i) payload_i over stored nodes.

    Built from payloads already multiplied by the node weights W_i, in
    one of two layouts: "flat" (n = 1: node axes x (n_x,) and s (n_s,),
    payload (n_x n_s,) over their tensor in "ij" order) and "axisym"
    (AxisymmetricNodes, payload rows (n_uv, n_s)), radial about the origin.
    Both evaluate only at finite points with t > 0.

    The flat layout stores its payload, or a stack (P, n_x n_s) of them.
    The axisym layout stores only a PayloadRows, whose stack of P payloads
    is made leaf by leaf at each evaluation (see _eval_axial): no array of
    n_uv n_s values is ever held, but an evaluation makes the payload once
    per group of up to _TAU_GROUP distinct point heights, so a field
    evaluated in c calls makes it at least c times.  With P > 1 the payloads share every kernel value, and
    values() and radial_values() carry a leading axis of length P.  Each
    stacked value equals, bit for bit, the value of the field built from
    that payload alone.

    No kernel table is built at full size.  The flat layout evaluates a
    block of points at a time; the axisym layout reduces each point's
    kernel-payload products as they are made, leaf by leaf of numpy's
    pairwise summation, so an evaluation needs a kernel tile set per
    distinct height and a few blocks of _BLOCK_VALUES values.
    """

    def __init__(self, n, k_order, nodes, wpay, stacked, label):
        """nodes: AxisymmetricNodes with wpay a PayloadRows, or the (x, s)
        node axes of the flat layout with wpay the weighted payload, or a
        stack of them."""
        self.n = n
        self.k = k_order
        self.label = label
        self.stacked = stacked
        self._flat = None
        self._ax = None
        if isinstance(nodes, AxisymmetricNodes):
            self.radial_center = np.zeros(n)
            self._ax = (nodes, wpay)
        else:
            self._flat = (nodes, wpay.reshape(-1, nodes[0].size * nodes[1].size))

    def _shaped(self, out, shape):
        """(P, m) results to (P, *shape), or to shape for a single payload."""
        return out.reshape(out.shape[:1] + shape) if self.stacked else out[0].reshape(shape)

    def values(self, points):
        pts = half_space_points(points, self.n, "evaluation points")
        flat = pts.reshape(-1, pts.shape[-1])
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
        rt = half_space_points(np.column_stack([R.ravel(), T.ravel()]), what="evaluation points")
        out = self._eval_axial(rt[:, 0], rt[:, 1])
        return self._shaped(out, R.shape)

    def _eval_axial(self, d, t):
        """(P, m) values at axis distances d and heights t.

        Neither the payload nor a point's kernel-payload products are ever
        stored at full size.  np.sum of the full product table would add
        them by pairwise summation; the table is cut into the leaves of
        that summation tree (_pairwise_leaves).  For each leaf the payload
        rows it touches are made once; for each point the leaf's products
        are made from the kernel rows that cover it and added by
        np.add.reduce (the reduce np.sum makes, without its Python
        wrapper), and at the end each point's leaf sums are added back in
        tree order.  A point's kernel tiles depend only on its height, so
        there is one BergmanRows per distinct height, all sharing two
        buffers, and the points of a leaf are visited in height order.
        At most _TAU_GROUP heights are held at once: more are evaluated in
        groups, and each group makes the payload again.  Every payload of
        a stack shares a leaf's kernel values, and each value equals the
        np.sum of the full table bit for bit, whatever the block size.
        A value depends on (d, t) alone, so each distinct pair is evaluated
        once and the values are indexed back.
        """
        pairs, where = np.unique(np.column_stack([d, t]), axis=0, return_inverse=True)
        d, t = pairs[:, 0], pairs[:, 1]
        nodes, pay = self._ax
        n_s = nodes.s.size
        tree, leaves = _pairwise_leaves(nodes.u.size * n_s)
        longest = max(hi - lo for lo, hi in leaves)
        rows = longest // n_s + 2  # most rows one leaf can touch
        heights, level = np.unique(t, return_inverse=True)
        order = np.argsort(level, kind="stable")
        # order[ends[g] : ends[g + 1]]: the points of height group g, by height
        ends = np.searchsorted(level[order], np.arange(0, heights.size + _TAU_GROUP, _TAU_GROUP))
        buffers = np.empty((rows, n_s)), np.empty((rows, n_s))
        prod = np.empty(longest)
        out = np.empty((pay.count, d.size))
        for g, h0 in enumerate(range(0, heights.size, _TAU_GROUP)):
            q = [kernels.BergmanRows(self.k, self.n, h + nodes.s, rows, buffers)
                 for h in heights[h0 : h0 + _TAU_GROUP]]
            pts = order[ends[g] : ends[g + 1]]
            tile = level[pts] - h0
            sums = np.empty((len(leaves), pay.count, pts.size))
            for li, (lo, hi) in enumerate(leaves):
                r0, r1 = lo // n_s, -(-hi // n_s)  # the rows the leaf touches
                cut = slice(lo - r0 * n_s, hi - r0 * n_s)
                w = pay.rows(r0, r1).reshape(pay.count, -1)[:, cut]
                D = nodes.dist_sq_to(d[pts, None], slice(r0, r1))
                part = prod[: hi - lo]
                for i in range(pts.size):
                    K = q[tile[i]].block(D[i]).ravel()[cut]
                    for j in range(pay.count):
                        np.multiply(K, w[j], out=part)
                        sums[li, j, i] = np.add.reduce(part)
            out[:, pts] = _tree_add(tree, sums)
            del q  # the next group's tiles replace these, never join them
        return out[:, where.ravel()]  # a 1-d inverse on numpy 1.23 and 2.x

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


def _payload_stack(g, k_order: int, region: Region, spec: QuadSpec,
                   offsets=(0.0,), eps=None, lam: float = 0.0, parts=()):
    """Nodes and weighted payloads for integrating kernels against g.

    Without eps the stack holds the one payload g s^k.  With a sequence
    eps it holds, for each eps in turn and each part in `parts`, g s^k on
    the complement (part 1) or on the superlevel set (part 2) of
    {s^lam |g| >= eps}.  Every payload is multiplied by the node weights.

    n >= 2 uses AxisymmetricNodes, one row per (u, v) node and one column
    per s node, and needs g radial about the origin; `offsets` lists the
    axis positions where the spatial grid refines, so keep them near the
    radii at which the field will be evaluated.  Its stack is returned as
    a PayloadRows that evaluates g on the rows asked for, so it is never
    built at full size; every evaluation of the field makes it again.
    n = 1 uses the flat layout: the node axes of box_axis_quadrature
    (rows) and t_quadrature (columns), weighted by their tensor_rule
    weights, and the stack is filled one block of node rows at a time, so
    nothing else is built at its size.
    """
    count = 1 if eps is None else len(eps) * len(parts)

    def weighted(gv, s, weights, out):
        """out[:] = the payloads of the fresh g values gv (gv is reused)."""
        if eps is None:
            np.multiply(gv, s**k_order, out=out[0])
        else:
            level = np.abs(gv)
            level *= s**lam
            gv *= s**k_order
            k = 0
            for e in eps:
                inside = level >= e
                for part in parts:
                    np.multiply(gv, inside if part == 2 else ~inside, out=out[k])
                    k += 1
        for wt in weights:
            out *= wt
        return out

    if g.n >= 2:
        if not g.is_radial or np.any(np.asarray(g.radial_center) != 0):
            raise ValueError("n >= 2 integration needs g radial about the origin")
        nodes = AxisymmetricNodes(region, g.n, spec, offsets)
        radius, s_row = nodes.center_radius()[:, None], nodes.s[None, :]

        def rows(r0, r1):
            return weighted(g.radial_values(radius[r0:r1], s_row), s_row,
                            (nodes.w_uv[r0:r1, None], nodes.w_s),
                            np.empty((count, r1 - r0, s_row.size)))
        return nodes, PayloadRows(count, rows)
    axes = (quad.box_axis_quadrature(region, spec), quad.t_quadrature(region, spec))
    nodes = tuple(x for x, _ in axes)
    shape = tuple(x.size for x in nodes)
    pts, w = quad.tensor_rule(axes)
    pts, w = pts.reshape(shape + (2,)), w.reshape(shape)
    stack = np.empty((count,) + shape)
    step = max(1, _BLOCK_VALUES // shape[1])
    for a in range(0, shape[0], step):
        blk = slice(a, a + step)
        weighted(g.values(pts[blk]), nodes[1], (w[blk],), stack[:, blk])
    return nodes, stack


def extension_field(g, k_order: int, region: Region, spec: QuadSpec,
                    offsets=(0.0,)) -> KernelIntegralField:
    """The mean-slot representative E(zeta) = int Q_k(zeta, w) g(w) s^k dw.

    The m-slot extension of g is f(z_1, .., z_m) = E((z_1 + .. + z_m)/m),
    and its trace f(z, .., z) is E itself.
    """
    if k_order < 0:
        raise ValueError("kernel order must be >= 0")
    nodes, stack = _payload_stack(g, k_order, region, spec, offsets)
    return KernelIntegralField(
        g.n, k_order, nodes, stack, False, f"extend{k_order}({g.label})"
    )


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
    return KernelIntegralField(
        f.n, m_order, nodes, stack, True, f"split({f.label})"
    )


def divergence_proxy(
    fields, eps_values, lam: float, p: float, alpha: float, m_order: int,
    region: Region, spec: QuadSpec, scales,
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
        r, wr = quad.radial_quadrature(n, scale, reg.x_max, spec)
        n_s = svals.size
        rows = max(1, _BLOCK_VALUES // (n_s * t.size))
        # one kernel row per (u, v) node over the distinct tau = t + s (s and
        # t are one grid, so most pairs repeat), gathered back into all
        # (s, t) pairs, s slowest
        tau, tau_of = np.unique(t[None, :] + svals[:, None], return_inverse=True)
        tau_of = tau_of.ravel()
        q = kernels.BergmanRows(m_order, n, tau, rows)
        inner = np.zeros((A.shape[0], r.size, t.size))
        for i, ri in enumerate(r):
            D = nodes.dist_sq_to(ri)
            for a in range(0, D.size, rows):
                kern = np.abs(q.block(D[a : a + rows]))[:, tau_of]
                inner[:, i, :] += A[:, a * n_s : (a + rows) * n_s] @ kern.reshape(-1, t.size)
        table[:, si] = (wr @ inner**p) @ (wt * t**alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = table[:, 1:] / table[:, :-1]
    growth[table[:, :-1] == 0] = 1.0
    growth[(table[:, :-1] == 0) & (table[:, 1:] > 0)] = np.inf
    bounds = np.cumsum([e.size for e in grids])[:-1]
    return list(zip(np.split(table, bounds), np.split(growth, bounds)))


def d2_estimate(
    fields, eps_values, p: float, alpha: float, m_order: int,
    region: Region, spec: QuadSpec, scales,
):
    """Per field, the smallest grid eps whose truncated integral stops
    growing.

    Like divergence_proxy, takes a sequence of fields with one eps grid
    each, which share the kernel evaluation.  lam is pinned to
    (alpha + n + 1)/p.  An eps is classified divergent when the last
    region-doubling growth factor is >= 1.2.  Returns a list with
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
        divergent = growth[:, -1] >= 1.2
        finite = np.nonzero(~divergent)[0]
        d2 = float(e[finite[0]]) if finite.size else float("inf")
        out.append((d2, divergent, table, growth))
    return out


def sab_form(f, a_vec, b_vec, z_slots, w_slots, p: float, region: Region,
             spec: QuadSpec) -> float:
    """Weighted form of the product-kernel operator on two slots, n = 1 only.

    (S f)(z_1, z_2) = t_1^(a_1) t_2^(a_2) *
        int f(w) s^(-n-1+b_1+b_2) prod_j |z_j - wbar|^(-(a_j+b_j)) dw
    z_slots: two arrays of points (P_j, 2); w_slots: their weights, one
    1-D array of P_j each.  Returns sum_ij w_1i |S(z_1i, z_2j)|^p w_2j,
    made one block of slot-0 rows at a time in one reused (rows, P_2)
    buffer, so no (P_1, P_2) table of S is ever held.  Slot exponents
    (a_2, b_2) = (0, 0) give the one-slot operator in slot 1, for every
    point of slot 2.
    """
    if f.n != 1:
        raise ValueError("product-kernel operator implemented for n = 1")
    if not len(a_vec) == len(b_vec) == len(z_slots) == len(w_slots) == 2:
        raise ValueError("the product-kernel operator takes two slots")
    check_positive(p=p)
    z_slots = [np.asarray(z, dtype=float) for z in z_slots]
    w_slots = [_slot_weights(w, z, f"w_slots[{j}]")
               for j, (w, z) in enumerate(zip(w_slots, z_slots))]
    pts, w = quad.tensor_rule([quad.box_axis_quadrature(region, spec),
                               quad.t_quadrature(region, spec)])
    fv = f.values(pts)
    base = w * fv * pts[:, -1] ** (-2 + float(np.sum(b_vec)))
    rows = max(1, _BLOCK_VALUES // pts.shape[0])
    expo = [-(a + b) / 2 for a, b in zip(a_vec, b_vec)]
    t_pow = [z[:, 1] ** a for z, a in zip(z_slots, a_vec)]
    z0, z1 = z_slots
    w0, w1 = w_slots
    kern1 = _slot_kernel(z1, pts, expo[1], rows)
    shared = expo[0] == expo[1] and np.array_equal(z0, z1)
    # every matmul packs kern1 anew: blocks of at least 128 slot-0 rows
    # keep that packing a small share of the matmul's arithmetic
    prows = max(rows, 128)
    kbuf = np.empty((min(prows, z0.shape[0]), pts.shape[0]))
    buf = np.empty((kbuf.shape[0], z1.shape[0]))
    acc = np.zeros(z1.shape[0])
    for a in range(0, z0.shape[0], prows):
        blk = slice(a, a + prows)
        k0 = kbuf[: min(prows, z0.shape[0] - a)]
        sb = buf[: k0.shape[0]]
        if shared:
            np.multiply(kern1[blk], base, out=k0)
        else:
            _slot_kernel(z0[blk], pts, expo[0], rows, out=k0)
            k0 *= base
        np.matmul(k0, kern1.T, out=sb)
        sb *= t_pow[0][blk, None]
        sb *= t_pow[1][None, :]
        np.abs(sb, out=sb)
        sb **= p
        acc += w0[blk] @ sb
    return float(acc @ w1)


def _slot_weights(w, z, name):
    """w as a 1-D finite float array with one entry per point of z."""
    w = np.asarray(w, dtype=float)
    if w.shape != (z.shape[0],):
        raise ValueError(f"{name} must be 1-D with one weight per slot point "
                         f"({z.shape[0]}), got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} must be finite")
    return w


def _slot_kernel(z, pts, expo, rows, out=None):
    """|z_i - wbar_k|^(2 expo) for slot points z (P, 2) and nodes pts (N, 2),
    made `rows` slot points at a time into out (a new array if None);
    equal, bit for bit, to the one broadcast expression over all of z."""
    if out is None:
        out = np.empty((z.shape[0], pts.shape[0]))
    for a in range(0, z.shape[0], rows):
        blk = z[a : a + rows]
        dsq = (blk[:, None, 0] - pts[None, :, 0]) ** 2
        dsq += (blk[:, None, 1] + pts[None, :, 1]) ** 2
        out[a : a + rows] = dsq ** expo
    return out


def mean_slot_integral(E, p: float, s_vec, region: Region, spec: QuadSpec):
    """int int |E((z1+z2)/2)|^p dm_{s1}(z1) dm_{s2}(z2) for a field E on
    the n = 1 half-plane: the slot side of the two-slot trace inequality.

    The x-integrals collapse: with u = (x1+x2)/2 the slot pairs of
    [-X, X] contribute the overlap length 2X - 2|u|.  The mean heights of
    the t-pairs repeat (the pair table is symmetric), so E is evaluated
    once per distinct (u, height) and the value table indexed back.
    """
    if E.n != 1:
        raise ValueError("the mean-slot integral is implemented for n = 1")
    if len(s_vec) != 2:
        raise ValueError("the mean-slot integral takes two slot exponents")
    X = region.x_max
    t, wt = quad.t_quadrature(region, spec)
    taus = 0.5 * (t[:, None] + t[None, :])  # mean heights over t-pairs
    u, wu = quad.box_axis_quadrature(region, spec)
    tau, tau_of = np.unique(taus.ravel(), return_inverse=True)
    tpair = np.outer(wt * t ** s_vec[0], wt * t ** s_vec[1]).ravel()
    P, _ = quad.tensor_rule([(u, wu), (tau, np.ones_like(tau))])
    vals = np.abs(E.values(P)).reshape(u.size, tau.size) ** p
    # np.take keeps the table C-ordered: the products below add in an order
    # that depends on the layout, and the all-pairs table was C-ordered
    return float((wu * (2 * X - 2 * np.abs(u))) @ np.take(vals, tau_of, axis=1) @ tpair)
