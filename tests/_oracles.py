"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: scalar de Casteljau
evaluation and Cartesian design matrices stand in for the derivative
rule (coefficient differences in each triangle's frame), the dimension
oracle assembles the raw smoothness/boundary constraint system on
unreduced patch coefficients and counts its rank; the product oracle multiplies in the
monomial basis; radial quadrature integrates rotationally symmetric fields
with a 1-D Gauss rule.  The per-triangle Bernstein matrices and frames,
assembly and linearization loops are the straightforward forms of the chunked kernels
in ``assembly`` and ``solver``, which must reproduce them bit for bit (but
for the straight triangles' Bernstein-basis stiffness blocks, one GEMM per
chunk whose row bits depend on the chunk, which the assembly loop takes
from the chunk's product), as
the space's stacked maps must reproduce the per-triangle extraction from
the fill; the fill's map, evaluated by fill level and split by a sort
of each triangle's entries, must reproduce bit for bit the sweeps
Z <- S + W Z to a fixed point and the split by one global sort over
(triangle, column) keys, and the Bernstein matrices from shared powers
the per-column formula; the per-triangle error norms evaluate the
spline through its own pieces.  ``stored_quadrature`` stores Cartesian design matrices for
every chunk, pies included, the form that frames and differenced
coefficients replace; the two agree to a few eps, and
``linearize_ma_at_nodes`` reads the Newton linearization, the cofactor
tabulated at the nodes, through either.  Newton's termination by a frozen-factor
correction is checked against the loop that confirms convergence with
one more full step, every step solved to TIGHT_RTOL.  The level
transfer's tangent-corner dofs are checked against the projection of
the coarse gradient at the corner.  The
scalar ray/arc rule, one ray at a time, and the pie rules built on it
(the (d)/(e) walk, curved midpoints, the per-pie quadrature) are the
straightforward forms of the batched per-arc queries in ``geometry``,
``mesh`` and ``assembly``, which must reproduce them bit for bit.  The
mesh's array classification and validation are checked against the walk
that builds the triangles and edges one at a time as records, and its
array refinement against the refinement that numbers midpoints one
triangle at a time; the mesh queries that only tests use (stars,
interior edges, vertex fans) are written here over the mesh arrays, as
are the other helpers only tests use (one-point barycentric coordinates,
a triangle's dofs and map, piece, degree and a pie's stored factor, read
off its map group, each owner's first dof in the determining set,
the ring's edge slots, BB products, domain points, the cross-edge
smoothness gaps, integrals of pointwise fields).
"""

import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.special import roots_legendre

from conicfem import assembly as asm
from conicfem import bernstein as bb
from conicfem import solver as sol
from conicfem.geometry import (GeometryError, arc_point_on_ray, eval_conic, grad_conic,
                               normalized_pie_conic)
from conicfem.mesh import BUFFER, ORDINARY, PIE, MeshError
from conicfem.space import _PER_OWNER, _STORED_DEGREE, MapGroup, _Propagator


# ---------------------------------------------------------------------------
# scalar evaluation of one BB polynomial at one point

def barycentric(tri, x):
    """Barycentric coordinates of one point x w.r.t. triangle tri ((3, 2)
    array), also outside it; ValueError for (near-)degenerate triangles."""
    return bb.barycentric_many(tri, np.asarray(x, dtype=float).reshape(1, 2))[0]


def ring_edge_slots(slot):
    """Slots of the two neighbor vertices, in the order used by vertex_ring."""
    return {1: (2, 3), 2: (1, 3), 3: (1, 2)}[slot]


def de_casteljau(d, coeffs, b):
    """Reference scalar evaluation of a BB polynomial by de Casteljau steps."""
    b1, b2, b3 = b
    work = {ijk: float(c) for ijk, c in zip(bb.multi_indices(d), coeffs)}
    for r in range(d, 0, -1):
        nxt = {}
        for (i, j, k) in bb.multi_indices(r - 1):
            nxt[(i, j, k)] = (
                b1 * work[(i + 1, j, k)]
                + b2 * work[(i, j + 1, k)]
                + b3 * work[(i, j, k + 1)]
            )
        work = nxt
    return work[(0, 0, 0)]


def eval_bb(d, coeffs, tri, x, order=0):
    """Evaluate a BB polynomial (or its Cartesian derivatives) at a point.

    order 0 -> value, 1 -> gradient (2,), 2 -> Hessian (2,2).
    Exact for polynomials; evaluation uses coefficient differencing in
    directional coordinates followed by de Casteljau.
    """
    if order > d:
        if order == 1:
            return np.zeros(2)
        if order == 2:
            return np.zeros((2, 2))
    coeffs = np.asarray(coeffs, dtype=float)
    b = barycentric(tri, x)
    if order == 0:
        return de_casteljau(d, coeffs, b)
    ax = bb.directional_coords(tri, (1.0, 0.0))
    ay = bb.directional_coords(tri, (0.0, 1.0))
    if order == 1:
        fac = float(d)
        gx = de_casteljau(d - 1, bb.diff_matrix(d, ax) @ coeffs, b)
        gy = de_casteljau(d - 1, bb.diff_matrix(d, ay) @ coeffs, b)
        return fac * np.array([gx, gy])
    if order == 2:
        fac = float(d * (d - 1))
        dx = bb.diff_matrix(d, ax) @ coeffs
        dy = bb.diff_matrix(d, ay) @ coeffs
        hxx = de_casteljau(d - 2, bb.diff_matrix(d - 1, ax) @ dx, b)
        hxy = de_casteljau(d - 2, bb.diff_matrix(d - 1, ay) @ dx, b)
        hyy = de_casteljau(d - 2, bb.diff_matrix(d - 1, ay) @ dy, b)
        return fac * np.array([[hxx, hxy], [hxy, hyy]])
    raise ValueError(f"derivative order {order} not supported")


def degree_raise(d, coeffs, d_to):
    """Coefficients of the same polynomial written at degree d_to >= d."""
    return bb.degree_raise_matrix(d, d_to) @ np.asarray(coeffs, dtype=float)


def bb_product(d1, c1, d2, c2):
    """BB coefficients of the product of two polynomials on the same triangle."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    rows, i1, i2, w = bb.product_matrix_structure(d1, d2)
    out = np.zeros(bb.n_coeffs(d1 + d2))
    np.add.at(out, rows, w * c1[i1] * c2[i2])
    return out


def domain_points(d, tri):
    """Domain points (i*v1 + j*v2 + k*v3)/d of a triangle, as an (n, 2) array."""
    tri = np.asarray(tri, dtype=float)
    lam = np.array(bb.multi_indices(d), dtype=float) / d
    return lam @ tri


# ---------------------------------------------------------------------------
# monomial-basis product oracle

def bb_to_monomial(d, coeffs, tri):
    """Coefficients of x^a y^b monomials (a+b <= d) of a BB polynomial,
    via collocation at generic points and a Vandermonde solve."""
    rng = np.random.default_rng(1234)
    n = bb.n_coeffs(d)
    pts = rng.standard_normal((n, 2))
    V = np.array([
        [x**a * y**b for a in range(d + 1) for b in range(d + 1 - a)]
        for x, y in pts
    ])
    vals = [de_casteljau(d, coeffs, barycentric(tri, p)) for p in pts]
    return np.linalg.solve(V, vals)


def monomial_product(d1, m1, d2, m2):
    """Product of two monomial coefficient vectors."""
    def unpack(d, m):
        out = {}
        k = 0
        for a in range(d + 1):
            for b in range(d + 1 - a):
                out[(a, b)] = m[k]
                k += 1
        return out

    p1, p2 = unpack(d1, m1), unpack(d2, m2)
    d = d1 + d2
    prod = {}
    for (a1, b1), c1 in p1.items():
        for (a2, b2), c2 in p2.items():
            key = (a1 + a2, b1 + b2)
            prod[key] = prod.get(key, 0.0) + c1 * c2
    return np.array([prod.get((a, b), 0.0)
                     for a in range(d + 1) for b in range(d + 1 - a)])


def monomial_to_bb(d, mono, tri):
    """Inverse of bb_to_monomial (collocation at the domain points)."""
    lam = np.array(bb.multi_indices(d), dtype=float) / d
    pts = lam @ np.asarray(tri, dtype=float)
    V = np.array([
        [x**a * y**b for a in range(d + 1) for b in range(d + 1 - a)]
        for x, y in pts
    ])
    vals = V @ mono
    B = bb.bernstein_matrix(d, lam)
    return np.linalg.solve(B, vals)


# ---------------------------------------------------------------------------
# dimension oracle: rank of the raw constraint system

def space_dimension_by_rank(mesh):
    """Dimension of the constrained piecewise-polynomial space, computed as
    (#raw coefficients) - rank(smoothness + boundary constraint matrix).

    Raw unknowns: 21 per ordinary (quintic), 28 per buffer (sextic), 15 per
    pie triangle (the quartic factor; the conic factor enforces the zero
    boundary values).  Constraints: C0/C1 conditions across every interior
    edge in a uniform degree-6 representation, plus full 2-jet agreement of
    adjacent pieces at every interior vertex.
    """
    offsets = []
    sizes = []
    pos = 0
    to6 = []
    raise56 = bb.degree_raise_matrix(5, 6)
    for t in range(mesh.n_triangles):
        kind = mesh.tri_kind[t]
        n = {ORDINARY: 21, PIE: 15}.get(kind, 28)
        offsets.append(pos)
        sizes.append(n)
        pos += n
        if kind == ORDINARY:
            to6.append(raise56)
        elif kind == PIE:
            qbb = normalized_pie_conic(mesh.domain.arcs[mesh.tri_arc[t]].conic,
                                       mesh.vertices[mesh.tri_verts[t]])
            to6.append(bb.product_matrix(4, 2, qbb))
        else:
            to6.append(np.eye(28))
    n_raw = pos

    rows = []

    def add_row(contribs):
        row = np.zeros(n_raw)
        for t, local_row in contribs:
            row[offsets[t]:offsets[t] + sizes[t]] += local_row
        rows.append(row)

    im6 = bb.index_map(6)
    for e in interior_edges(mesh):
        ta, tb = mesh.edge_tris[e]
        slots_a, slots_b = _edge_slots(mesh, e, ta), _edge_slots(mesh, e, tb)
        A6, B6 = to6[ta], to6[tb]
        # C0: matching edge rows
        for m, gb in enumerate(bb.edge_row_indices(6, slots_b, 0)):
            ga = [0, 0, 0]
            ga[slots_a[0] - 1] = 6 - m
            ga[slots_a[1] - 1] = m
            add_row([(tb, B6[im6[gb]]), (ta, -A6[im6[tuple(ga)]])])
        # C1: first interior row of side b from side a
        off_b = 6 - slots_b[0] - slots_b[1]
        w = mesh.vertices[mesh.tri_verts[tb, off_b - 1]]
        b_off = barycentric(mesh.vertices[mesh.tri_verts[ta]], w)
        for m, gb in enumerate(bb.edge_row_indices(6, slots_b, 1)):
            base = [0, 0, 0]
            base[slots_a[0] - 1] = 5 - m
            base[slots_a[1] - 1] = m
            local = B6[im6[gb]].copy()
            contrib_a = np.zeros(A6.shape[1])
            for s in range(3):
                gg = base.copy()
                gg[s] += 1
                contrib_a -= b_off[s] * A6[im6[tuple(gg)]]
            add_row([(tb, local), (ta, contrib_a)])

    # twice differentiable at interior vertices: adjacent pieces share jets
    for v in np.flatnonzero(~mesh.vertex_is_boundary):
        tris = vertex_triangles(mesh, v)
        pairs = []
        for t in tris:
            for u in tris:
                if t < u:
                    shared = set(mesh.tri_verts[t].tolist()) & set(mesh.tri_verts[u].tolist())
                    if len(shared) == 2:
                        pairs.append((t, u))
        for ta, tb in pairs:
            Ja = _jet_rows(mesh, ta, v) @ to6[ta]
            Jb = _jet_rows(mesh, tb, v) @ to6[tb]
            for r in range(6):
                add_row([(ta, Ja[r]), (tb, -Jb[r])])

    M = np.array(rows)
    norms = np.linalg.norm(M, axis=1)
    M = M[norms > 0] / norms[norms > 0, None]
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    return n_raw - rank


def _jet_rows(mesh, t, v):
    """Rows extracting the 2-jet at vertex v from a degree-6 patch on t."""
    tri = mesh.vertices[mesh.tri_verts[t]]
    slot = _slot(mesh, t, v)
    ring = bb.vertex_ring(6, slot)
    im = bb.index_map(6)
    sel = np.zeros((6, 28))
    for i, g in enumerate(ring):
        sel[i, im[g]] = 1.0
    return ring_to_jet_matrix(tri, slot, 6) @ sel


def _slot(mesh, t, v):
    """1-based slot of vertex v in triangle t."""
    return mesh.tri_verts[t].tolist().index(v) + 1


def _edge_slots(mesh, e, t):
    """1-based slots of edge e's vertices (in their sorted order) in t."""
    return tuple(_slot(mesh, t, v) for v in mesh.edge_verts[e].tolist())


# ---------------------------------------------------------------------------
# jet <-> vertex ring maps, one triangle and vertex at a time

def jet_to_ring_matrix(tri, slot, d):
    """6x6 map from a Cartesian 2-jet (v, gx, gy, hxx, hxy, hyy) at a
    vertex to the six ring coefficients in canonical ring order (the
    scalar form of space.jet_to_ring_matrices)."""
    tri = np.asarray(tri, dtype=float)
    corner = tri[slot - 1]
    sa, sb = ring_edge_slots(slot)
    ua = tri[sa - 1] - corner
    ub = tri[sb - 1] - corner
    d1 = float(d)
    d2 = float(d * (d - 1))
    rows = np.zeros((6, 6))
    rows[0] = [1, 0, 0, 0, 0, 0]
    rows[1] = [1, ua[0] / d1, ua[1] / d1, 0, 0, 0]
    rows[2] = [1, ub[0] / d1, ub[1] / d1, 0, 0, 0]
    rows[3] = [1, 2 * ua[0] / d1, 2 * ua[1] / d1,
               ua[0] ** 2 / d2, 2 * ua[0] * ua[1] / d2, ua[1] ** 2 / d2]
    rows[4] = [1, 2 * ub[0] / d1, 2 * ub[1] / d1,
               ub[0] ** 2 / d2, 2 * ub[0] * ub[1] / d2, ub[1] ** 2 / d2]
    rows[5] = [1, (ua[0] + ub[0]) / d1, (ua[1] + ub[1]) / d1,
               ua[0] * ub[0] / d2, (ua[0] * ub[1] + ua[1] * ub[0]) / d2,
               ua[1] * ub[1] / d2]
    return rows


def ring_to_jet_matrix(tri, slot, d):
    return np.linalg.inv(jet_to_ring_matrix(tri, slot, d))


# ---------------------------------------------------------------------------
# vectorized checks over many dof vectors at once

def _global_degree6_maps(space):
    """Per-triangle (28 x dim) dense maps from dofs to degree-6 coefficients."""
    mesh = space.mesh
    dim = space.dimension
    raise56 = bb.degree_raise_matrix(5, 6)
    out = []
    for t in range(mesh.n_triangles):
        cols, Z = local_map(space, t)
        if mesh.tri_kind[t] == ORDINARY:
            Z = raise56 @ Z
        G = np.zeros((28, dim))
        G[:, cols] = Z
        out.append(G)
    return out


def smoothness_residual_matrix(space):
    """All C0/C1 residual functionals as one (n_conditions x dim) matrix."""
    mesh = space.mesh
    maps = _global_degree6_maps(space)
    im6 = bb.index_map(6)
    rows = []
    for e in interior_edges(mesh):
        ta, tb = mesh.edge_tris[e]
        slots_a, slots_b = _edge_slots(mesh, e, ta), _edge_slots(mesh, e, tb)
        A6, B6 = maps[ta], maps[tb]
        for m, gb in enumerate(bb.edge_row_indices(6, slots_b, 0)):
            ga = [0, 0, 0]
            ga[slots_a[0] - 1] = 6 - m
            ga[slots_a[1] - 1] = m
            rows.append(B6[im6[gb]] - A6[im6[tuple(ga)]])
        off_b = 6 - slots_b[0] - slots_b[1]
        w = mesh.vertices[mesh.tri_verts[tb, off_b - 1]]
        b_off = barycentric(mesh.vertices[mesh.tri_verts[ta]], w)
        for m, gb in enumerate(bb.edge_row_indices(6, slots_b, 1)):
            base = [0, 0, 0]
            base[slots_a[0] - 1] = 5 - m
            base[slots_a[1] - 1] = m
            row = B6[im6[gb]].copy()
            for s in range(3):
                gg = base.copy()
                gg[s] += 1
                row -= b_off[s] * A6[im6[tuple(gg)]]
            rows.append(row)
    return np.array(rows), maps


def boundary_sample_matrix(space, per_arc=30):
    """Boundary point-evaluation functionals as a matrix over the dofs."""
    mesh = space.mesh
    rows = []
    u = np.linspace(0.03, 0.97, per_arc)[:, None]
    for t in np.flatnonzero(mesh.tri_kind == PIE):
        tri = mesh.vertices[mesh.tri_verts[t]]
        v1, v2, v3 = tri
        pts = arc_point_on_ray(mesh.domain.arcs[mesh.tri_arc[t]], v1, v2 + u * (v3 - v2))
        V = bb.bernstein_matrix(6, bb.barycentric_many(tri, pts))
        G = np.zeros((per_arc, space.dimension))
        cols, Z = local_map(space, t)
        G[:, cols] = V @ Z
        rows.append(G)
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# the space read one triangle or one owner at a time

def tri_degree(space, t):
    """Degree of the piece on triangle t (6 on pies: the product form)."""
    return 5 if space.mesh.tri_kind[t] == ORDINARY else 6


def local_map(space, t, stored=False):
    """(t's dofs, the map from them to the BB coefficients of t's piece:
    the degree-6 product form on pies), or with stored set, to the
    coefficients the fill stores (the degree-4 factor on pies), read off
    t's row of its map group."""
    grp, i = space.groups[space._group[t]], space._row[t]
    return grp.cols[i], (grp.stored if stored else grp.Z)[i]


def patch(spline, t):
    """BB coefficients of the piece of a spline on triangle t (degree-6
    product form over the chord triangle on pies)."""
    cols, Z = local_map(spline.space, t)
    return Z @ spline.dofs[cols]


def factor(spline, t):
    """Degree-4 factor coefficients of the pie triangle t (the coefficients
    the fill stores; the piece itself on other triangles)."""
    cols, F = local_map(spline.space, t, stored=True)
    return F @ spline.dofs[cols]


def owner_dofs(mds, category):
    """Owner (vertex, edge or triangle) -> its first dof, for the dofs of
    one category of the determining set."""
    block, n = mds.blocks[category], _PER_OWNER[category]
    return dict(zip(mds.owner[block][::n].tolist(), range(block.start, block.stop, n)))


def extraction_matrix(space):
    """Matrix of all determining functionals applied to all dual splines."""
    dim = space.dimension
    E = np.zeros((dim, dim))
    for j, (t, pos) in enumerate(zip(space.mds.tri, space.mds.pos)):
        cols, Z = local_map(space, t, stored=True)
        E[j, cols] = Z[pos]
    return E


# ---------------------------------------------------------------------------
# the fill's maps read off one triangle at a time

def _densify(Z, lo, hi):
    """Rows lo..hi of the CSR map Z as (dof columns, dense matrix)."""
    a, b = Z.indptr[lo], Z.indptr[hi]
    cols, pos = np.unique(Z.indices[a:b], return_inverse=True)
    rows = np.repeat(np.arange(hi - lo), np.diff(Z.indptr[lo:hi + 1]))
    M = np.zeros((hi - lo, len(cols)))
    M[rows, pos] = Z.data[a:b]
    scale = np.abs(M).max() if M.size else 1.0
    M[np.abs(M) < 1e-15 * max(scale, 1.0)] = 0.0
    return cols.astype(np.int64), M


def triangle_maps(space):
    """Per triangle, (dofs, piece map, stored map) read off the fill's
    sparse map one triangle at a time: the stored map takes its rows of
    the fill, the piece map is the product form on pies (the stored map
    elsewhere)."""
    prop = _Propagator(space.mesh, space.mds)
    Z = prop.run()
    out = []
    for t in range(space.mesh.n_triangles):
        cols, M = _densify(Z, prop.offset[t], prop.offset[t + 1])
        piece = prop.pie_P[prop.pie_row[t]] @ M if space.mesh.tri_kind[t] == PIE else M
        out.append((cols, piece, M))
    return out


class SweepPropagator(_Propagator):
    """The fill with its map reached by sweeps Z <- S + W Z from Z = S
    until a sweep changes nothing: one sweep per fill level, then one that
    only confirms it."""

    @staticmethod
    def _by_level(W, S):
        Z, prev = S, None
        while prev is None or (Z != prev).nnz:
            Z, prev = S + W @ Z, Z
        return Z


def map_groups_by_unique(mesh, prop, Z):
    """space._map_groups by a global sort: per triangle the sorted columns
    of its rows from one np.unique over (triangle, column) keys, each
    group's maps scattered dense and cut at 1e-15 of each triangle's
    largest entry (or of 1) there."""
    dim = Z.shape[1]
    row = np.repeat(np.arange(Z.shape[0]), np.diff(Z.indptr))    # per entry
    tri = np.searchsorted(prop.offset, row, side="right") - 1
    keys, pos = np.unique(tri * dim + Z.indices, return_inverse=True)
    k = np.bincount(keys // dim, minlength=mesh.n_triangles)
    start = np.concatenate([[0], np.cumsum(k)])
    pos -= start[tri]                                   # column in its triangle
    # groups in the order of their first triangle
    _, first, member = np.unique(prop.degree * (k.max(initial=0) + 1) + k,
                                 return_index=True, return_inverse=True)
    groups = []
    for g in np.argsort(first):
        tris, nz = np.flatnonzero(member == g), member[tri] == g
        kind, kt = str(mesh.tri_kind[tris[0]]), int(k[tris[0]])
        M = np.zeros((len(tris), bb.n_coeffs(_STORED_DEGREE[kind]), kt))
        M[np.searchsorted(tris, tri[nz]), (row - prop.offset[tri])[nz], pos[nz]] = Z.data[nz]
        scale = np.maximum(np.abs(M).max(axis=(1, 2), initial=0.0), 1.0)
        M[np.abs(M) < 1e-15 * scale[:, None, None]] = 0.0
        cols = keys[member[keys // dim] == g].reshape(len(tris), kt) % dim
        piece = prop.pie_P[prop.pie_row[tris]] @ M if kind == PIE else M
        groups.append(MapGroup(kind, 5 if kind == ORDINARY else 6, tris, cols, piece, M))
    return groups


def bernstein_by_columns(d, bary):
    """The degree-d Bernstein matrix at barycentric points (..., n, 3),
    each column multinomial * x**i * y**j * z**k with its own powers."""
    flat = np.asarray(bary, dtype=float).reshape(-1, 3)
    cols = [bb.multinomial(d, (i, j, k)) * flat[:, 0] ** i * flat[:, 1] ** j * flat[:, 2] ** k
            for i, j, k in bb.multi_indices(d)]
    return np.column_stack(cols).reshape(np.shape(bary)[:-1] + (len(cols),))


def basis_support(space, lam, tol=1e-13):
    """Triangles on which the dual basis function of dof lam is nonzero."""
    out = set()
    for grp in space.groups:
        for i, k in zip(*np.nonzero(grp.cols == lam)):
            if np.abs(grp.stored[i, :, k]).max() > tol:
                out.add(int(grp.tris[i]))
    return out


# ---------------------------------------------------------------------------
# smoothness predicates applied to a propagated spline

def _edge_index(d, slots, m):
    """Multi-index on the edge (slots[0], slots[1]) with m steps toward slots[1]."""
    g = [0, 0, 0]
    g[slots[0] - 1] = d - m
    g[slots[1] - 1] = m
    return tuple(g)


def cross_edge_rows(d, coef_src, src_slots, dst_slots, b_off):
    """Edge row and first interior row of the neighbor patch across an edge.

    The source patch (coefficients coef_src, degree d) and destination patch
    share an edge; src_slots / dst_slots give the local slots of the two
    shared vertices, listed in the same physical order.  b_off are the
    barycentric coordinates of the destination's off-edge vertex w.r.t. the
    source triangle.  Returns two dicts keyed by destination multi-index:
    the continuity row (off=0) and the tangent-plane row (off=1) implied by
    C0/C1 smoothness.
    """
    im = bb.index_map(d)
    coef_src = np.asarray(coef_src, dtype=float)
    c0 = {}
    for m, g in enumerate(bb.edge_row_indices(d, dst_slots, 0)):
        c0[g] = coef_src[im[_edge_index(d, src_slots, m)]]
    c1 = dict(zip(bb.edge_row_indices(d, dst_slots, 1),
                  bb.c1_matrix(d, src_slots, b_off) @ coef_src))
    return c0, c1


def smoothness_gaps(d, tri_a, coef_a, slots_a, tri_b, coef_b, slots_b):
    """Max C0 and C1 condition violations across a shared edge.

    slots_a / slots_b identify the shared vertices (same physical order).
    Returns absolute gaps (max over the edge row / first interior row);
    callers scale by the coefficient magnitude for a relative test.
    """
    off_b = 6 - slots_b[0] - slots_b[1]
    w = np.asarray(tri_b, dtype=float)[off_b - 1]
    b_off = barycentric(tri_a, w)
    c0, c1 = cross_edge_rows(d, coef_a, slots_a, slots_b, b_off)
    im = bb.index_map(d)
    coef_b = np.asarray(coef_b, dtype=float)
    gap0 = max(abs(coef_b[im[g]] - v) for g, v in c0.items())
    gap1 = max(abs(coef_b[im[g]] - v) for g, v in c1.items())
    return gap0, gap1


def smoothness_report(space, spline):
    """Worst relative C0 / C1 violations across all interior edges."""
    mesh = space.mesh
    worst0 = worst1 = 0.0
    for e in interior_edges(mesh):
        ta, tb = mesh.edge_tris[e]
        ca, cb = patch(spline, ta), patch(spline, tb)
        da = 5 if mesh.tri_kind[ta] == ORDINARY else 6
        db = 5 if mesh.tri_kind[tb] == ORDINARY else 6
        if da < 6 <= db:
            ca = degree_raise(5, ca, 6)
        if db < 6 <= da:
            cb = degree_raise(5, cb, 6)
        d = max(da, db)
        slots_a, slots_b = _edge_slots(mesh, e, ta), _edge_slots(mesh, e, tb)
        g0, g1 = smoothness_gaps(d, mesh.vertices[mesh.tri_verts[ta]], ca, slots_a,
                                 mesh.vertices[mesh.tri_verts[tb]], cb, slots_b)
        scale = max(np.abs(ca).max(), np.abs(cb).max(), 1e-300)
        worst0 = max(worst0, g0 / scale)
        worst1 = max(worst1, g1 / scale)
    return worst0, worst1


def boundary_samples_max(space, spline, per_arc=30):
    """Max |s| over boundary samples (ray points on each pie's arc)."""
    mesh = space.mesh
    worst = 0.0
    u = np.linspace(0.03, 0.97, per_arc)[:, None]
    for t in np.flatnonzero(mesh.tri_kind == PIE):
        tri = mesh.vertices[mesh.tri_verts[t]]
        v1, v2, v3 = tri
        for x in arc_point_on_ray(mesh.domain.arcs[mesh.tri_arc[t]], v1, v2 + u * (v3 - v2)):
            worst = max(worst, abs(eval_bb(6, patch(spline, t), tri, x)))
    return worst


# ---------------------------------------------------------------------------
# radial quadrature for rotationally symmetric integrands on the unit disk

def disk_radial_integral(f_of_r, n=200):
    """integral over the unit disk of f(r), via 2*pi*int_0^1 f(r) r dr."""
    x, w = roots_legendre(n)
    r = 0.5 * (x + 1.0)
    return 2.0 * np.pi * 0.5 * float(w @ (f_of_r(r) * r))


# ---------------------------------------------------------------------------
# per-triangle design data, Galerkin assembly, Monge-Ampere linearization
# and error norms

def derivative_matrices(d, tri, B, B1=None, B2=None):
    """Cartesian design matrices (V, G, H) from the Bernstein matrices B,
    B1, B2 of degrees d, d-1, d-2 at one point set: V = B, G = [Dx, Dy]
    and H = [Dxx, Dxy, Dyy], so that e.g. the x-derivatives are G[0] @ c
    (G, H are None without B1, B2).

    The derivatives come from coefficient differencing in the directional
    coordinates of tri.  Triangles (g, 3, 2) give stacks G and H from
    shared or stacked B1, B2: entry i is what tri[i] alone gives."""
    G = H = None
    if B1 is not None:
        ax = bb.directional_coords(tri, (1.0, 0.0))
        ay = bb.directional_coords(tri, (0.0, 1.0))
        Mx, My = bb.diff_matrix(d, ax), bb.diff_matrix(d, ay)
        G = [d * (B1 @ Mx), d * (B1 @ My)]
        if B2 is not None:
            fac = d * (d - 1)
            H = [
                fac * (B2 @ (bb.diff_matrix(d - 1, ax) @ Mx)),
                fac * (B2 @ (bb.diff_matrix(d - 1, ay) @ Mx)),
                fac * (B2 @ (bb.diff_matrix(d - 1, ay) @ My)),
            ]
    return B, G, H


def apply_design(V, G, H, coeffs):
    """(values, gradients (n, 2), Hessians (n, 2, 2)) of coefficients from
    the design matrices of derivative_matrices; a missing G or H gives
    None."""
    vals = V @ coeffs
    grads = None if G is None else np.column_stack([G[0] @ coeffs, G[1] @ coeffs])
    hess = None
    if H is not None:
        hess = np.empty((len(vals), 2, 2))
        hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1] = (M @ coeffs for M in H)
        hess[:, 1, 0] = hess[:, 0, 1]
    return vals, grads, hess


def triangle_designs(quad):
    """(B, M) per triangle at its quadrature nodes, each built for that
    triangle alone: B the Bernstein matrices of degrees d, d-1, d-2 (d the
    triangle's degree), M (2, 2) the first two directional coordinates of
    x (row 0) and of y (row 1).  On pies B is evaluated at the pie rule's
    barycentric points w.r.t. the chord triangle; on straight triangles it
    is the reference rule's, shared."""
    mesh = quad.space.mesh
    rule = asm.triangle_rule(asm.QUAD_DEGREE)
    shared = {d: [bb.bernstein_matrix(d - s, rule.bary) for s in range(3)] for d in (5, 6)}
    out = []
    for t in range(mesh.n_triangles):
        d = tri_degree(quad.space, t)
        tri = mesh.vertices[mesh.tri_verts[t]]
        M = np.array([bb.directional_coords(tri, (1.0, 0.0))[:2],
                      bb.directional_coords(tri, (0.0, 1.0))[:2]])
        if mesh.tri_kind[t] == PIE:
            bary = bb.barycentric_many(tri, asm.pie_quadrature(mesh, [t])[0][0])
            out.append(([bb.bernstein_matrix(d - s, bary) for s in range(3)], M))
        else:
            out.append((shared[d], M))
    return out


def frame_gradient_maps(d, B1, Z):
    """[D0, D1]: the derivatives along e0 - e2 and e1 - e2 of the columns
    of one triangle's map Z, at the points of B1."""
    return [B1 @ (Ds @ Z) for Ds in bb.frame_diff(d)]


def hessian_coefficients(d, M, c):
    """[cxx, cxy, cyy] of one triangle's coefficients c (nc,) and its
    frame M (2, 2): M on the stacked differences along e0 - e2 and
    e1 - e2 of c gives the gradient's coefficients, the same rule on those
    the Hessian's."""
    def grad(d, c):
        n1 = bb.n_coeffs(d - 1)
        e = bb.frame_diff(d).reshape(2 * n1, -1) @ c
        return [m0 * e[:n1] + m1 * e[n1:] for m0, m1 in M]

    cx, cy = grad(d, c)
    return [*grad(d - 1, cx), grad(d - 1, cy)[1]]


def triangle_nodes(quad):
    """Triangle -> (its quadrature nodes (nq, 2), its weights (nq,)), read
    from the chunks."""
    return {t: (ch.nodes[i], ch.weights[i]) for ch in quad.chunks
            for i, t in enumerate(ch.tris)}


def integrate(quad, field):
    """Integral of a pointwise field over the mesh."""
    return asm._quadrature_sums(quad, lambda ch: [ch.at_nodes(field)])[0]


def domain_area(quad):
    """Area of the mesh's domain by quadrature."""
    return integrate(quad, lambda x: np.ones(len(x)))


@dataclasses.dataclass(eq=False)
class StoredChunk(asm.QuadratureChunk):
    """A quadrature chunk that stores Cartesian design matrices G = [Gx,
    Gy] and H = [Hxx, Hxy, Hyy], each (g, nq, nc), and reads derivatives
    from them: the stored form that frames and differenced coefficients
    replace (assemble_cartesian assembles from G)."""

    G: list = None
    H: list = None

    def derivatives(self, C, rows=slice(None), degree=None, orders=(0, 1, 2)):
        if degree not in (None, self.degree):
            raise ValueError(f"stored chunk of degree {self.degree} has no "
                             f"degree-{degree} design")
        V = self.B[self.degree]
        mats = {0: [V if V.ndim == 2 else V[rows]],
                1: [Gs[rows] for Gs in self.G], 2: [Hs[rows] for Hs in self.H]}
        return [(A @ C)[:, :, 0] for o in orders for A in mats[o]]


def stored_quadrature(quad):
    """A copy of quad whose chunks, pies included, are StoredChunks with
    the Cartesian design matrices of one batched derivative_matrices over
    each chunk's triangles and Bernstein matrices."""
    out = copy.copy(quad)
    out.chunks = []
    for ch in quad.chunks:
        d = ch.degree
        _, G, H = derivative_matrices(d, ch.coords, ch.B[d], ch.B[d - 1], ch.B[d - 2])
        out.chunks.append(StoredChunk(**vars(ch), G=G, H=H))
    return out


def assemble_cartesian(A, quad):
    """CSR stiffness matrix of int grad(u) . A grad(v) from the Cartesian
    gradients of a stored_quadrature: per chunk the gradient stacks Gx @ Z
    and Gy @ Z and the sums over the nodes of w A_ij (G_i Z)^T (G_j Z),
    summed by the quadrature's ScatterPlan in slot order."""
    vals = []
    for ch in quad.chunks:
        Gx, Gy = (Gs @ ch.Z for Gs in ch.G)
        wA = ch.weights[:, :, None, None] * np.asarray(A(ch))
        qx = wA[:, :, 0, 0, None] * Gx + wA[:, :, 0, 1, None] * Gy
        qy = wA[:, :, 1, 0, None] * Gx + wA[:, :, 1, 1, None] * Gy
        vals.append((Gx.swapaxes(1, 2) @ qx + Gy.swapaxes(1, 2) @ qy).ravel())
    return quad.scatter.csr([np.concatenate(vals)])


def frame_weights(A, M, scale=1.0):
    """(nk, 3) BB coefficients of F00, F01 and F11 of one triangle, F =
    M^T A M, from its coefficients A (nk, 2, 2) and its frame M (2, 2)
    scaled by `scale`: F_ij sums M_si A_st M_tj over the four entries
    (s, t)."""
    C = np.stack([M[:, None, i] * M[None, :, j] for i, j in ((0, 0), (0, 1), (1, 1))],
                 axis=-1).reshape(4, 3)
    return A.reshape(-1, 4) @ (C * scale)


def pie_block(d, W, B1):
    """One pie's stiffness block in its Bernstein basis from its weights W
    (nq, 3) and degree-(d-1) Bernstein matrix B1 (nq, n1): the weighted
    Gram blocks N_ij = B1^T diag(W_ij) B1, contracted with the shared
    difference matrices as D^T N D."""
    n1 = B1.shape[1]
    N = np.empty((2, n1, 2, n1))
    for r, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
        N[i, :, j] = B1.T @ (W[:, r, None] * B1)
    N[1, :, 0] = N[0, :, 1]
    D = bb.frame_diff(d).reshape(2 * n1, -1)
    return D.T @ (N.reshape(2 * n1, 2 * n1) @ D)


def assemble_per_triangle(A, f, quad):
    """(CSR matrix of int grad(u) . A grad(v), rhs int f v) of the
    coefficient fields A (BB coefficients) and f (nodal), one triangle at
    a time in slot order (the chunks' triangles in order), each entry
    summed from +0.0.  The fields are evaluated once per chunk and read
    row by row.  A triangle's block in its Bernstein basis comes from the
    coefficients of M^T A M: on a pie, evaluated at its nodes and
    weighted, from pie_block; on a straight triangle, with the frame
    scaled by its area, from the row of the chunk's product of the
    stacked coefficients with asm.stiffness_table (the only step taken
    per chunk); the block in the dofs is Z^T L Z."""
    space = quad.space
    mesh = space.mesh
    designs = triangle_designs(quad)
    nodes = triangle_nodes(quad)
    tables = [{ch: np.asarray(fn(ch)) for ch in quad.chunks} for fn in (A, f)]
    weights = {}
    for ch in quad.chunks:
        for r, t in enumerate(ch.tris):
            (B, M), w = designs[t], nodes[t][1]
            if mesh.tri_kind[t] == PIE:
                weights[t] = (B[2] @ frame_weights(tables[0][ch][r], M)) * w[:, None]
            else:
                area = abs(bb.triangle_area(mesh.vertices[mesh.tri_verts[t]]))
                weights[t] = frame_weights(tables[0][ch][r], M, area)
    straight = {ch: np.stack([weights[t] for t in ch.tris]).reshape(len(ch.tris), -1)
                @ asm.stiffness_table(ch.degree)
                for ch in quad.chunks if mesh.tri_kind[ch.tris[0]] != PIE}

    blocks = []
    rhs = np.zeros(space.dimension)
    for ch in quad.chunks:
        for r, t in enumerate(ch.tris):
            gdofs, Z = local_map(space, t)
            d = tri_degree(space, t)
            B = designs[t][0]
            if mesh.tri_kind[t] == PIE:
                L = pie_block(d, weights[t], B[1])
            else:
                L = straight[ch][r].reshape(Z.shape[0], Z.shape[0])
            blocks.append((gdofs, (Z.T @ L) @ Z))
            wf = nodes[t][1] * tables[1][ch][r]
            rhs[gdofs] += (Z.T @ (B[0].T @ wf[:, None]))[:, 0]
    return sum_in_slot_order(space.dimension, blocks), rhs


def slot_blocks(quad, vals):
    """(dofs, local block) of each triangle in slot order (the chunks'
    triangles in order), read off the slot values vals, each block's row
    by row."""
    blocks, at = [], 0
    for ch in quad.chunks:
        k = ch.cols.shape[1]
        for dofs in ch.cols:
            blocks.append((dofs, vals[at:at + k * k].reshape(k, k)))
            at += k * k
    return blocks


def sum_in_slot_order(n, blocks):
    """The n x n CSR matrix, with int32 indices, of the sum of the local
    blocks of blocks, (dofs, local block) pairs, one triangle at a time in
    their order, each entry from +0.0; its pattern is every (row, column)
    pair of the blocks, also where the sum is zero."""
    keys = [(dofs[:, None] * n + dofs).ravel() for dofs, _ in blocks]
    pattern = np.unique(np.concatenate(keys))
    data = np.zeros(pattern.size)
    for key, (_, block) in zip(keys, blocks):
        data[np.searchsorted(pattern, key)] += block.ravel()
    indptr = np.searchsorted(pattern // n, np.arange(n + 1)).astype(np.int32)
    return sps.csr_matrix((data, (pattern % n).astype(np.int32), indptr), shape=(n, n))


def slot_values(A, quad):
    """The local matrices Z^T L Z of the coefficient field A, computed
    chunk by chunk as assemble computes them, flat in slot order."""
    vals = []
    for ch in quad.chunks:
        L = ch.bb_stiffness(ch.frame_weights(np.asarray(A(ch))))
        vals.append(((ch.Z.swapaxes(1, 2) @ L) @ ch.Z).ravel())
    return np.concatenate(vals)


def linearize_ma_per_triangle(u, g, quad):
    """(cofactor table, residual table, eigmin) of the Monge-Ampere
    linearization at u, one triangle at a time: the cofactor in BB form
    from hessian_coefficients, the residual and eigmin from those
    coefficients evaluated at the triangle's nodes."""
    cof_tab = {}
    res_tab = {}
    eigmin = np.inf
    nodes = triangle_nodes(quad)
    for t, (B, M) in enumerate(triangle_designs(quad)):
        cxx, cxy, cyy = hessian_coefficients(tri_degree(quad.space, t), M, patch(u, t))
        cof = np.empty(cxx.shape + (2, 2))
        cof[:, 0, 0] = cyy
        cof[:, 1, 1] = cxx
        cof[:, 0, 1] = cof[:, 1, 0] = -cxy
        cof_tab[t] = cof
        hxx, hxy, hyy = (B[2] @ c for c in (cxx, cxy, cyy))
        res_tab[t] = hxx * hyy - hxy * hxy - np.asarray(g(nodes[t][0]))
        half_tr = 0.5 * (hxx + hyy)
        rad = np.sqrt((0.5 * (hxx - hyy)) ** 2 + hxy ** 2)
        eigmin = min(eigmin, float((half_tr - rad).min()))
    return cof_tab, res_tab, eigmin


def linearize_ma_at_nodes(u, g, quad):
    """(A, f, eigmin) of the Monge-Ampere linearization at u with the
    cofactor tabulated at the quadrature nodes, (g, nq, 2, 2) per chunk,
    from each chunk's nodal `hessians` (a stored_quadrature's read its
    Cartesian H stacks)."""
    cof_tab, res_tab = {}, {}
    eigmin = np.inf
    for ch in quad.chunks:
        hxx, hxy, hyy = ch.hessians(u.pieces(ch.Z, ch.cols))
        cof = np.empty(hxx.shape + (2, 2))
        cof[..., 0, 0], cof[..., 1, 1] = hyy, hxx
        cof[..., 0, 1] = cof[..., 1, 0] = -hxy
        cof_tab[ch] = cof
        res_tab[ch] = hxx * hyy - hxy * hxy - ch.at_nodes(g)
        half_tr = 0.5 * (hxx + hyy)
        rad = np.sqrt((0.5 * (hxx - hyy)) ** 2 + hxy ** 2)
        eigmin = min(eigmin, float((half_tr - rad).min()))
    return cof_tab.__getitem__, res_tab.__getitem__, eigmin


def coefficients_at_nodes(ch, A):
    """A matrix coefficient field's BB coefficients A (g, nk, 2, 2) on a
    chunk evaluated at its nodes, (g, nq, 2, 2)."""
    g, nk = A.shape[:2]
    return (ch.B[ch.degree - 2] @ A.reshape(g, nk, 4)).reshape(g, -1, 2, 2)


def error_norms_per_triangle(spline, quad, ref_batch):
    """(L2, H1, H2) norms of spline - reference, with the spline evaluated
    triangle by triangle at its quadrature nodes (SplineFunction.evaluate
    with the triangle given) and the reference given per triangle: ref_batch(t, points) ->
    (values, gradients, hessians)."""
    l2 = h1s = h2s = 0.0
    nodes = triangle_nodes(quad)
    for t in range(quad.space.mesh.n_triangles):
        pts, w = nodes[t]
        vals, grads, hess = spline.evaluate(pts, np.full(len(pts), t))
        rv, rg, rh = ref_batch(t, pts)
        vals, grads, hess = vals - rv, grads - rg, hess - rh
        l2 += float(w @ (vals * vals))
        h1s += float(w @ (grads[:, 0] ** 2 + grads[:, 1] ** 2))
        h2s += float(w @ (hess[:, 0, 0] ** 2 + 2.0 * hess[:, 0, 1] ** 2
                          + hess[:, 1, 1] ** 2))
    return np.sqrt(l2), np.sqrt(l2 + h1s), np.sqrt(l2 + h1s + h2s)


# ---------------------------------------------------------------------------
# Newton termination by one more full step

# the relative residual of the tight solves that tests compare against:
# the tight_cg fixture's and run_level_full_steps'
TIGHT_RTOL = 1e-13


def run_level_full_steps(ctx, g, u0):
    """Newton iteration that confirms convergence with one more full step:
    every correction, the confirming one too, linearizes, assembles and
    factors anew (solver.newton_step with a fresh NewtonSolves) and solves
    by CG to TIGHT_RTOL, and the loop stops on the first correction below
    100 eps |u| at the corrected iterate, within solver.MAX_STEPS steps.
    Returns (final iterate, m, correction norms, diverged), m counting the
    corrections but the confirming one, unless that is the only one."""
    u = u0
    norms = []
    converged = False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asm, "KRYLOV_RTOL", TIGHT_RTOL)
        for _ in range(sol.MAX_STEPS):
            u, n = sol.newton_step(ctx, u, sol.newton_rhs(ctx, u, g), sol.NewtonSolves())
            norms.append(n)
            if n < 100.0 * np.finfo(float).eps * asm.l2_norm(u, ctx.quad):
                converged = True
                break
            if len(norms) >= 4 and norms[-1] > norms[-2] > norms[-3] > norms[-4]:
                break
    m = len(norms) - 1 if converged and len(norms) > 1 else len(norms)
    return u, m, norms, not converged


# ---------------------------------------------------------------------------
# the transfer's tangent-corner dofs from the coarse gradient

def corner_dofs_by_gradient(u_coarse, fine_space):
    """Tangent-corner dof position -> value, by projecting the coarse
    spline's gradient at the boundary vertex onto the gradient of the fine
    pie's conic normalized by its pie scale (the gradient of s = p q / scale
    there is p grad q / scale, as q vanishes)."""
    mesh_f, space_c = fine_space.mesh, u_coarse.space
    out = {}
    for v, pos in owner_dofs(fine_space.mds, "tangent-corner").items():
        t = fine_space.mds.tri[pos]
        p, x = mesh_f.parents[t], mesh_f.vertices[v]
        gr = eval_bb(tri_degree(space_c, p), patch(u_coarse, p),
                     space_c.mesh.vertices[space_c.mesh.tri_verts[p]], x, order=1)
        gq = grad_conic(mesh_f.domain.arcs[mesh_f.tri_arc[t]].conic, x) / fine_space.pie_scale[t]
        out[pos] = float(gr @ gq) / float(gq @ gq)
    return out


# ---------------------------------------------------------------------------
# the ray/arc rule one ray at a time, and the pie rules built on it

def arc_point_on_ray_scalar(arc, origin, through):
    """Intersection of the arc with one ray origin -> through (extended):
    the one admissible root at or beyond `through` of the quadratic in the
    ray parameter, polished by one Newton step along the ray."""
    origin = np.asarray(origin, dtype=float)
    through = np.asarray(through, dtype=float)
    d = through - origin
    if np.linalg.norm(d) < 1e-15:
        raise GeometryError("ray direction degenerate")
    k = arc.conic.coeffs
    a2 = k[0] * d[0] ** 2 + k[1] * d[0] * d[1] + k[2] * d[1] ** 2
    a1 = float(grad_conic(arc.conic, origin) @ d)
    a0 = float(eval_conic(arc.conic, origin))
    roots = []
    if abs(a2) < 1e-15 * max(abs(a1), abs(a0), 1.0):
        if a1 != 0.0:
            roots = [-a0 / a1]
    else:
        disc = a1 * a1 - 4 * a2 * a0
        if disc < 0:
            raise GeometryError("ray does not reach the arc (no real root)")
        sq = np.sqrt(disc)
        roots = [(-a1 - sq) / (2 * a2), (-a1 + sq) / (2 * a2)]
    admissible = [t for t in roots if t >= 1.0 - 1e-9]
    if len(admissible) != 1:
        if len(admissible) > 1 and abs(admissible[0] - admissible[1]) < 1e-12:
            admissible = admissible[:1]
        else:
            raise GeometryError(
                f"expected one ray/arc crossing beyond the through point, "
                f"found {len(admissible)} (star-shapedness violated?)"
            )
    x = origin + admissible[0] * d
    g1 = float(grad_conic(arc.conic, x) @ d)
    if g1 != 0.0:
        x = x + (-eval_conic(arc.conic, x) / g1) * d
    return x


def pie_conditions_scalar(domain, vertices, triangles, boundary_edges):
    """The first (d)/(e) violation of raw mesh data (the inputs of
    mesh.classify_and_validate), as (condition, message) of the MeshError,
    or None.  Walks the pies in order: a triangle with a boundary edge,
    turned counter-clockwise, has its interior vertex v1 opposite that
    edge; per pie the conic at v1, then for each of 50 chord samples the
    ray to the arc (d) and the conic at four fractions of it (e)."""
    vertices = np.asarray(vertices, dtype=float)
    arc_of = {frozenset((int(a), int(b))): int(arc) for a, b, arc in boundary_edges}
    for ti, t in enumerate(triangles):
        a, b, c = (int(v) for v in t)
        ab, ac = vertices[b] - vertices[a], vertices[c] - vertices[a]
        if float(ab[0] * ac[1] - ab[1] * ac[0]) < 0:
            b, c = c, b
        pie = [(p, q, r) for p, q, r in ((c, a, b), (a, b, c), (b, c, a))
               if frozenset((q, r)) in arc_of]
        if not pie:
            continue
        v1, v2, v3 = (vertices[i] for i in pie[0])
        arc = domain.arcs[arc_of[frozenset(pie[0][1:])]]
        if eval_conic(arc.conic, v1) <= 0:
            err = MeshError("e", f"conic not positive at interior vertex of pie {ti}")
            return err.condition, str(err)
        for s in np.linspace(0.02, 0.98, 50):
            chord_pt = v2 + s * (v3 - v2)
            try:
                apt = arc_point_on_ray_scalar(arc, v1, chord_pt)
            except GeometryError as exc:
                err = MeshError("d", f"pie {ti} not star-shaped: {exc}")
                return err.condition, str(err)
            for r in (0.25, 0.55, 0.8, 0.95):
                x = v1 + r * (apt - v1)
                if eval_conic(arc.conic, x) <= 0:
                    err = MeshError(
                        "e", f"conic not positive inside pie {ti} at {tuple(x.tolist())}")
                    return err.condition, str(err)
    return None


def curved_midpoints_scalar(mesh):
    """Per pie in mesh order, the point where the ray from its interior
    vertex through its chord midpoint meets its arc."""
    out = []
    for t in np.flatnonzero(mesh.tri_kind == PIE):
        v1, v2, v3 = mesh.vertices[mesh.tri_verts[t]]
        out.append(arc_point_on_ray_scalar(mesh.domain.arcs[mesh.tri_arc[t]], v1, 0.5 * (v2 + v3)))
    return np.array(out)


def pie_quadrature_scalar(mesh, t):
    """Nodes (PIE_ORDER**2, 2) and weights of the blended tensor Gauss rule
    on pie t, one ray at a time (see assembly.pie_quadrature)."""
    if mesh.tri_kind[t] != PIE:
        raise asm.AssemblyError(f"triangle {t} is not pie-shaped")
    v1, v2, v3 = mesh.vertices[mesh.tri_verts[t]]
    arc = mesh.domain.arcs[mesh.tri_arc[t]]
    n = asm.PIE_ORDER
    xg, wg = roots_legendre(n)
    r = 0.5 * (xg + 1.0)
    wr = 0.5 * wg
    s = 0.5 * (xg + 1.0)
    ws = 0.5 * wg
    cdir = v3 - v2
    apts = np.empty((n, 2))
    adot = np.empty((n, 2))
    for j in range(n):
        c = v2 + s[j] * cdir
        a = arc_point_on_ray_scalar(arc, v1, c)
        g = grad_conic(arc.conic, a)
        denom = float(g @ (c - v1))
        if denom == 0.0:
            raise asm.AssemblyError(f"tangential ray on pie {t} (star-shape violated)")
        tpar = float((a - v1) @ (c - v1)) / float((c - v1) @ (c - v1))
        tdot = -tpar * float(g @ cdir) / denom
        apts[j] = a
        adot[j] = tdot * (c - v1) + tpar * cdir
    js = (apts[:, 0] - v1[0]) * adot[:, 1] - (apts[:, 1] - v1[1]) * adot[:, 0]
    if np.any(js <= 0):
        raise asm.AssemblyError(f"non-positive blending Jacobian on pie triangle {t}")
    nodes = (v1 + r[:, None, None] * (apts - v1)).reshape(-1, 2)
    weights = (wr[:, None] * ws * r[:, None] * js).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# mesh queries over the arrays

def vertex_triangles(mesh, v):
    """The triangles at vertex v, ascending."""
    return np.flatnonzero((mesh.tri_verts == v).any(axis=1))


def interior_edges(mesh):
    return np.flatnonzero(mesh.edge_tris[:, 1] >= 0).tolist()


def plain_interior_edges(mesh):
    """Interior edges that are not pie/buffer edges."""
    return [e for e in interior_edges(mesh)
            if set(mesh.tri_kind[mesh.edge_tris[e]].tolist()) != {PIE, BUFFER}]


def star(mesh, simplices, level=1):
    """Triangles whose closure meets the given simplices, iterated.

    Accepts triangle indices or ('v'|'e'|'t', index) tags.  In a valid
    triangulation two closed simplices intersect iff they share a vertex,
    so stars are computed through vertex incidence.
    """
    if level < 1:
        raise ValueError("star level must be >= 1")
    tris = set()
    verts = set()
    for s in simplices:
        if isinstance(s, tuple):
            tag, idx = s
            if tag == "v":
                verts.add(idx)
            elif tag == "e":
                verts.update(mesh.edge_verts[idx].tolist())
            elif tag == "t":
                verts.update(mesh.tri_verts[idx].tolist())
            else:
                raise ValueError(f"unknown simplex tag {tag}")
        else:
            verts.update(mesh.tri_verts[s].tolist())
    for _ in range(level):
        for v in verts:
            tris.update(vertex_triangles(mesh, v).tolist())
        verts = set()
        for t in tris:
            verts.update(mesh.tri_verts[t].tolist())
    return tris


def _tangent_at(q1, q2, x, tol=1e-10):
    """True if the curves of q1 and q2 through x share a tangent line there:
    their gradients at x are parallel up to tol relative."""
    g1 = grad_conic(q1, x)
    g2 = grad_conic(q2, x)
    cross = abs(g1[0] * g2[1] - g1[1] * g2[0])
    return cross <= tol * np.linalg.norm(g1) * np.linalg.norm(g2)


def corner_is_tangent(domain, j, tol=1e-10):
    """True if incoming and outgoing arcs share a tangent line at corner j."""
    n = len(domain.arcs)
    return _tangent_at(domain.arcs[(j - 1) % n].conic, domain.arcs[j].conic,
                       domain.corners[j], tol)


# ---------------------------------------------------------------------------
# classification, validation and refinement one triangle at a time

def classify_and_validate_scalar(domain, vertices, triangles, boundary_edges):
    """The classification and validation of mesh.classify_and_validate as a
    walk over triangles, edges and vertices that builds records: raises the
    same MeshError, else returns triangles [(verts, kind, arc or None)],
    edges [(sorted verts, incident triangles, arc or None)] in sorted
    order, vertex_is_boundary, vertex_tangent and vertex_tris (vertex ->
    ascending triangles).  (d)/(e) are pie_conditions_scalar."""
    vertices = np.asarray(vertices, dtype=float)
    tris_in = [tuple(int(v) for v in t) for t in np.asarray(triangles, dtype=int)]
    scale = max(1.0, float(np.abs(vertices).max()))

    # consistent ccw orientation; degenerate relative to each triangle's size
    tris = []
    for t in tris_in:
        a, b, c = vertices[t[0]], vertices[t[1]], vertices[t[2]]
        ab, ac = b - a, c - a
        area2 = float(ab[0] * ac[1] - ab[1] * ac[0])
        tri_scale = max(1.0, float(np.abs(vertices[list(t)]).max()))
        if abs(area2) < 2e-14 * tri_scale * tri_scale:
            raise MeshError("mesh", f"degenerate triangle {t}")
        tris.append(t if area2 > 0 else (t[0], t[2], t[1]))

    # edge -> incident triangles
    edge_tris = {}
    for ti, t in enumerate(tris):
        for k in range(3):
            key = tuple(sorted((t[k], t[(k + 1) % 3])))
            edge_tris.setdefault(key, []).append(ti)
    for key, owners in edge_tris.items():
        if len(owners) > 2:
            raise MeshError("mesh", f"edge {key} shared by {len(owners)} triangles")

    declared = {}
    for va, vb, arc in boundary_edges:
        edge = tuple(sorted((int(va), int(vb))))
        if edge in declared:
            raise MeshError("mesh", f"boundary edge {edge} declared twice")
        declared[edge] = int(arc)
    actual_boundary = {k for k, owners in edge_tris.items() if len(owners) == 1}
    if actual_boundary != set(declared):
        missing = actual_boundary - set(declared)
        extra = set(declared) - actual_boundary
        raise MeshError(
            "mesh",
            f"boundary edge mismatch (undeclared: {sorted(missing)}, "
            f"declared-but-interior: {sorted(extra)})",
        )

    # boundary edge endpoints must sit on their arc's conic
    for key, arc_idx in declared.items():
        conic = domain.arcs[arc_idx].conic
        for v in key:
            q = abs(eval_conic(conic, vertices[v]))
            if q > 1e-9 * scale * scale * max(np.abs(conic.coeffs)):
                raise MeshError(
                    "mesh", f"vertex {v} not on conic of arc {arc_idx} (|q|={q:.2e})"
                )

    vertex_is_boundary = np.zeros(len(vertices), dtype=bool)
    for key in actual_boundary:
        vertex_is_boundary[list(key)] = True

    # (a) arc corners are vertices
    for j, z in enumerate(domain.corners):
        d = np.linalg.norm(vertices - np.asarray(z), axis=1)
        v = int(np.argmin(d))
        if d[v] > 1e-9 * scale or not vertex_is_boundary[v]:
            raise MeshError("a", f"arc corner {j} at {tuple(z.tolist())} is not a boundary vertex")

    # (b) interior edges with both endpoints on the boundary
    for key, owners in edge_tris.items():
        if len(owners) == 2 and vertex_is_boundary[key[0]] and vertex_is_boundary[key[1]]:
            raise MeshError("b", f"interior edge {key} has both endpoints on the boundary")

    # classification
    kinds = [None] * len(tris)
    arcs = [None] * len(tris)
    for ti, t in enumerate(tris):
        bedges = [
            k for k in range(3)
            if tuple(sorted((t[k], t[(k + 1) % 3]))) in actual_boundary
        ]
        if len(bedges) > 1:
            raise MeshError("mesh", f"triangle {ti} has {len(bedges)} boundary edges")
        if bedges:
            kinds[ti] = PIE
            arcs[ti] = declared[tuple(sorted((t[bedges[0]], t[(bedges[0] + 1) % 3])))]
    for ti, t in enumerate(tris):
        if kinds[ti] == PIE:
            continue
        for k in range(3):
            key = tuple(sorted((t[k], t[(k + 1) % 3])))
            owners = edge_tris[key]
            if len(owners) == 2:
                other = owners[0] if owners[1] == ti else owners[1]
                if kinds[other] == PIE:
                    kinds[ti] = BUFFER
                    break
        if kinds[ti] is None:
            kinds[ti] = ORDINARY

    # canonical slot ordering
    records = []
    for ti, t in enumerate(tris):
        if kinds[ti] == PIE:
            off = next(
                k for k in range(3)
                if tuple(sorted((t[k], t[(k + 1) % 3]))) in actual_boundary
            )
            v1 = t[(off + 2) % 3]
            v2, v3 = t[off], t[(off + 1) % 3]
            if vertex_is_boundary[v1]:
                raise MeshError("b", f"pie triangle {ti} has all vertices on the boundary")
            records.append(((v1, v2, v3), PIE, arcs[ti]))
        elif kinds[ti] == BUFFER:
            bverts = [k for k in range(3) if vertex_is_boundary[t[k]]]
            if len(bverts) != 1:
                raise MeshError(
                    "mesh", f"buffer triangle {ti} has {len(bverts)} boundary vertices"
                )
            k = bverts[0]
            records.append(((t[k], t[(k + 1) % 3], t[(k + 2) % 3]), BUFFER, None))
        else:
            records.append((t, ORDINARY, None))

    # (c), (g): forbidden adjacencies
    for key, owners in edge_tris.items():
        if len(owners) != 2:
            continue
        ka, kb = kinds[owners[0]], kinds[owners[1]]
        if ka == kb == PIE:
            raise MeshError("c", f"pie triangles {owners} share edge {key}")
        if ka == kb == BUFFER:
            raise MeshError("g", f"buffer triangles {owners} share edge {key}")

    edges = [(key, tuple(edge_tris[key]), declared.get(key)) for key in sorted(edge_tris)]

    # euler characteristic of a disk
    if len(vertices) - len(edges) + len(tris) != 1:
        raise MeshError("mesh", "Euler relation |V|-|E|+|T| = 1 violated")

    # vertex links: single fan, cycle for interior / path for boundary
    vert_tris = [[] for _ in range(len(vertices))]
    for ti, t in enumerate(tris):
        for v in t:
            vert_tris[v].append(ti)
    for v in range(len(vertices)):
        owners = vert_tris[v]
        if not owners:
            raise MeshError("mesh", f"isolated vertex {v}")
        inner = 0
        adj = {ti: [] for ti in owners}
        for key in {(min(v, u), max(v, u)) for ti in owners for u in tris[ti] if u != v}:
            ow = edge_tris[key]
            if len(ow) == 2:
                adj[ow[0]].append(ow[1])
                adj[ow[1]].append(ow[0])
                inner += 1
        seen = {owners[0]}
        stack = [owners[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(owners):
            raise MeshError("mesh", f"vertex {v} has a disconnected triangle fan")
        expected = len(owners) - 1 if vertex_is_boundary[v] else len(owners)
        if inner != expected:
            raise MeshError("mesh", f"vertex {v} link is not a simple fan")

    # V_B^1: boundary tangent continuity via gradient collinearity
    vertex_tangent = np.zeros(len(vertices), dtype=bool)
    bd_edges_at = {}
    for key, arc_idx in declared.items():
        for v in key:
            bd_edges_at.setdefault(v, []).append(arc_idx)
    for v, arc_ids in bd_edges_at.items():
        if len(arc_ids) != 2:
            raise MeshError("mesh", f"boundary vertex {v} has {len(arc_ids)} boundary edges")
        vertex_tangent[v] = _tangent_at(domain.arcs[arc_ids[0]].conic,
                                        domain.arcs[arc_ids[1]].conic, vertices[v])

    # (d) + (e): pie star-shapedness and conic positivity
    failure = pie_conditions_scalar(domain, vertices, triangles, boundary_edges)
    if failure is not None:
        condition, message = failure
        raise MeshError(condition, message[len(f"condition ({condition}): "):])

    # structural prerequisites of the dof construction
    for v in np.flatnonzero(~vertex_is_boundary):
        if not any(records[t][1] == ORDINARY for t in vert_tris[v]):
            raise MeshError("mesh", f"interior vertex {v} touches no ordinary triangle")
    for v in np.flatnonzero(vertex_is_boundary):
        ks = sorted(records[t][1] for t in vert_tris[v])
        if ks != [BUFFER, PIE, PIE]:
            raise MeshError(
                "mesh",
                f"boundary vertex {v} fan is {ks}, expected one buffer between two pies",
            )

    # no fold: the two triangles of an interior edge run it in opposite directions
    for key, owners in edge_tris.items():
        forward = [any((tris[ti][k], tris[ti][(k + 1) % 3]) == key for k in range(3))
                   for ti in owners]
        if len(owners) == 2 and forward[0] == forward[1]:
            raise MeshError("mesh", f"triangles {owners} lie on the same side of their "
                            f"edge {key}")
    return SimpleNamespace(triangles=records, edges=edges,
                           vertex_is_boundary=vertex_is_boundary,
                           vertex_tangent=vertex_tangent, vertex_tris=vert_tris)


def refine_inputs_scalar(mesh):
    """The raw data that mesh.refine_uniform validates, built one triangle
    at a time: (vertices, children, boundary edges, parents).  Curved
    midpoints come first in pie order, then straight midpoints in order of
    first occurrence over the triangles' edges (slots 0-1, 1-2, 2-0)."""
    n = mesh.n_vertices
    verts = [tuple(p) for p in mesh.vertices] + [tuple(p) for p in curved_midpoints_scalar(mesh)]
    pies = np.flatnonzero(mesh.tri_kind == PIE).tolist()
    mid_of = {tuple(sorted(mesh.tri_verts[t, 1:].tolist())): n + i for i, t in enumerate(pies)}

    def straight_mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid_of:
            mid_of[key] = len(verts)
            verts.append(tuple(0.5 * (mesh.vertices[a] + mesh.vertices[b])))
        return mid_of[key]

    children, parents = [], []
    for ti, (a, b, c) in enumerate(mesh.tri_verts.tolist()):
        mab, mbc, mca = straight_mid(a, b), straight_mid(b, c), straight_mid(c, a)
        children += [(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)]
        parents += [ti] * 4
    boundary = []
    for (va, vb), arc in zip(mesh.edge_verts.tolist(), mesh.edge_arc.tolist()):
        if arc >= 0:
            m = mid_of[(va, vb)]
            boundary += [(va, m, arc), (m, vb, arc)]
    return np.asarray(verts, dtype=float), children, boundary, parents
