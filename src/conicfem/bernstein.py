"""Bernstein-Bezier algebra on triangles.

Polynomials are stored as flat coefficient vectors in the fixed
lexicographic ordering of ``multi_indices`` (i descending, then j
descending).  All functions here are pure and operate on immutable
inputs, so they are safe to share across threads.

Degrees up to ``MAX_DEGREE`` = 10 are supported; the library itself
only uses d in {1, 2, 4, 5, 6}.
"""

import math
from functools import lru_cache

import numpy as np

MAX_DEGREE = 10

_FACT = [math.factorial(n) for n in range(MAX_DEGREE + 1)]


class DegreeError(ValueError):
    """Requested polynomial degree outside the supported range."""


def _check_degree(d):
    if not (0 <= d <= MAX_DEGREE):
        raise DegreeError(f"degree {d} outside supported range 0..{MAX_DEGREE}")


@lru_cache(maxsize=None)
def multi_indices(d):
    """All (i, j, k) with i+j+k = d, ordered i descending then j descending."""
    _check_degree(d)
    return tuple(
        (i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)
    )


@lru_cache(maxsize=None)
def index_map(d):
    """Dict mapping each multi-index of degree d to its linear position."""
    return {ijk: n for n, ijk in enumerate(multi_indices(d))}


def n_coeffs(d):
    return (d + 1) * (d + 2) // 2


def multinomial(d, ijk):
    i, j, k = ijk
    return _FACT[d] // (_FACT[i] * _FACT[j] * _FACT[k])


def domain_points(d, tri):
    """Domain points (i*v1 + j*v2 + k*v3)/d of a triangle, as an (n, 2) array."""
    tri = np.asarray(tri, dtype=float)
    lam = np.array(multi_indices(d), dtype=float) / d
    return lam @ tri


# ---------------------------------------------------------------------------
# barycentric coordinates

def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def triangle_area(tri):
    """Signed area of a triangle (3, 2) or of each of (..., 3, 2)."""
    tri = np.asarray(tri, dtype=float)
    return 0.5 * _cross2(tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :])


def barycentric(tri, x):
    """Barycentric coordinates of point x w.r.t. triangle tri ((3,2) array).

    Works for points outside the triangle as well (affine extension).
    Raises ValueError for (near-)degenerate triangles.
    """
    return barycentric_many(tri, np.asarray(x, dtype=float).reshape(1, 2))[0]


def barycentric_many(tri, pts):
    """Barycentric coordinates for an (n, 2) array of points; returns (n, 3).

    Also batched over triangles: tri (m, 3, 2) and pts (m, n, 2) give
    (m, n, 3), each point set measured against its own triangle.
    """
    tri = np.asarray(tri, dtype=float)
    pts = np.asarray(pts, dtype=float)
    v1 = tri[..., :1, :]
    e2, e3 = tri[..., 1:2, :] - v1, tri[..., 2:, :] - v1
    area2 = e2[..., 0] * e3[..., 1] - e2[..., 1] * e3[..., 0]
    scale = np.maximum(np.abs(tri).max(axis=(-2, -1), keepdims=True)[..., 0], 1.0)
    if (np.abs(area2) < 2e-14 * scale * scale).any():
        raise ValueError("degenerate triangle in barycentric computation")
    d = pts - v1
    b2 = (d[..., 0] * e3[..., 1] - d[..., 1] * e3[..., 0]) / area2
    b3 = (e2[..., 0] * d[..., 1] - e2[..., 1] * d[..., 0]) / area2
    out = np.empty(pts.shape[:-1] + (3,))
    out[..., 0] = 1.0 - b2 - b3
    out[..., 1] = b2
    out[..., 2] = b3
    return out


def directional_coords(tri, u):
    """Barycentric directional coordinates of a vector u (they sum to 0)."""
    tri = np.asarray(tri, dtype=float)
    u = np.asarray(u, dtype=float)
    b = barycentric_many(tri, np.stack([tri[..., 0, :] + u, tri[..., 0, :]], axis=-2))
    return b[..., 0, :] - b[..., 1, :]


# ---------------------------------------------------------------------------
# evaluation

def bernstein_matrix(d, bary):
    """Design matrix of all degree-d Bernstein polynomials at barycentric points.

    bary: (..., n, 3) array; returns (..., n, n_coeffs(d)).
    """
    bary = np.asarray(bary, dtype=float)
    if bary.ndim == 1:
        bary = bary.reshape(1, 3)
    flat = bary.reshape(-1, 3)
    cols = []
    for ijk in multi_indices(d):
        i, j, k = ijk
        cols.append(
            multinomial(d, ijk)
            * flat[:, 0] ** i * flat[:, 1] ** j * flat[:, 2] ** k
        )
    return np.column_stack(cols).reshape(bary.shape[:-1] + (len(cols),))


@lru_cache(maxsize=None)
def _diff_structure(d):
    """Index triples ((pos+e1, pos+e2, pos+e3) per reduced index) for differencing."""
    im = index_map(d)
    rows = []
    for (i, j, k) in multi_indices(d - 1):
        rows.append((im[(i + 1, j, k)], im[(i, j + 1, k)], im[(i, j, k + 1)]))
    return np.array(rows, dtype=np.int64)


def diff_matrix(d, a):
    """Matrix of the coefficient difference operator for direction coords a.

    Maps degree-d coefficients to degree-(d-1) coefficients of the (scaled)
    directional derivative: D_u p = d * sum (diff_matrix(d, a) @ c)_g B^{d-1}_g.
    """
    st = _diff_structure(d)
    m = np.zeros(a.shape[:-1] + (len(st), n_coeffs(d)))
    rows = np.arange(len(st))
    for s in range(3):
        m[..., rows, st[:, s]] += a[..., s, None]
    return m


def design_matrices(d, tri, bary, order=2):
    """Vectorized evaluation matrices at fixed barycentric points.

    Returns (V, G, H) where V is (n, nc), G = [Dx, Dy] and
    H = [Dxx, Dxy, Dyy] (each (n, nc)), so that e.g. values = V @ coeffs.
    G and H are None when not requested via order.  Triangles (g, 3, 2)
    and points (g, n, 3) give (g, n, nc) stacks.
    """
    B1 = bernstein_matrix(d - 1, bary) if order >= 1 and d >= 1 else None
    B2 = bernstein_matrix(d - 2, bary) if order >= 2 and d >= 2 else None
    return derivative_matrices(d, tri, bernstein_matrix(d, bary), B1, B2)


def derivative_matrices(d, tri, B, B1=None, B2=None):
    """(V, G, H) of design_matrices from the Bernstein matrices B, B1, B2
    of degrees d, d-1, d-2 at one point set (G, H are None without B1, B2).

    The Cartesian derivatives come from coefficient differencing in the
    directional coordinates of tri.  Triangles (g, 3, 2) give stacks G and
    H from shared or stacked B1, B2: entry i is what tri[i] alone gives."""
    G = H = None
    if B1 is not None:
        ax = directional_coords(tri, (1.0, 0.0))
        ay = directional_coords(tri, (0.0, 1.0))
        Mx, My = diff_matrix(d, ax), diff_matrix(d, ay)
        G = [d * (B1 @ Mx), d * (B1 @ My)]
        if B2 is not None:
            fac = d * (d - 1)
            H = [
                fac * (B2 @ (diff_matrix(d - 1, ax) @ Mx)),
                fac * (B2 @ (diff_matrix(d - 1, ay) @ Mx)),
                fac * (B2 @ (diff_matrix(d - 1, ay) @ My)),
            ]
    return B, G, H


def apply_design(V, G, H, coeffs):
    """(values, gradients (n, 2), Hessians (n, 2, 2)) of coefficients from
    design matrices; a missing G or H gives None."""
    vals = V @ coeffs
    grads = None if G is None else np.column_stack([G[0] @ coeffs, G[1] @ coeffs])
    hess = None
    if H is not None:
        hess = np.empty((len(vals), 2, 2))
        hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1] = (M @ coeffs for M in H)
        hess[:, 1, 0] = hess[:, 0, 1]
    return vals, grads, hess


# ---------------------------------------------------------------------------
# degree raising and products

@lru_cache(maxsize=None)
def degree_raise_matrix(d, d_to):
    """Matrix R with raise(c) = R @ c, mapping degree d to degree d_to >= d."""
    if d_to < d:
        raise DegreeError("cannot lower degree")
    _check_degree(d_to)
    R = np.eye(n_coeffs(d))
    for dd in range(d, d_to):
        im = index_map(dd)
        step = np.zeros((n_coeffs(dd + 1), n_coeffs(dd)))
        for r, (i, j, k) in enumerate(multi_indices(dd + 1)):
            if i > 0:
                step[r, im[(i - 1, j, k)]] += i / (dd + 1)
            if j > 0:
                step[r, im[(i, j - 1, k)]] += j / (dd + 1)
            if k > 0:
                step[r, im[(i, j, k - 1)]] += k / (dd + 1)
        R = step @ R
    return R


def _de_casteljau_step(r, X, b):
    """One de Casteljau step on each row of X (degree r -> r - 1), with
    the barycentric point b[k] for row k."""
    st = _diff_structure(r)
    return (b[:, None, 0] * X[:, st[:, 0]] + b[:, None, 1] * X[:, st[:, 1]]
            + b[:, None, 2] * X[:, st[:, 2]])


def reexpand(d, coeffs, S, d_to):
    """Degree-d BB polynomials on a triangle T rewritten on other triangles.

    coeffs: (n, n_coeffs(d)), one polynomial per row; S: (n, 3, 3), row i
    of S[k] holding the barycentric coordinates w.r.t. T of vertex i of
    target triangle k (which may reach outside T).  Returns the (n,
    n_coeffs(d_to)) coefficients of the same polynomials on the targets,
    at degree d_to >= d.

    This is de Casteljau subdivision: target coefficient
    (i, j, k) is the blossom at i copies of the first target vertex, j of
    the second and k of the third.  On sub-triangles every step is a
    convex combination, so no conditioning is lost.
    """
    S = np.asarray(S, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if d_to < d:
        raise DegreeError("cannot lower degree")
    out = np.empty_like(coeffs)
    im = index_map(d)
    P = coeffs
    for i in range(d + 1):              # P: i steps toward vertex 1
        Q = P
        for j in range(d - i + 1):      # Q: then j steps toward vertex 2
            R = Q
            for r in range(d - i - j, 0, -1):
                R = _de_casteljau_step(r, R, S[:, 2])
            out[:, im[(i, j, d - i - j)]] = R[:, 0]
            if j < d - i:
                Q = _de_casteljau_step(d - i - j, Q, S[:, 1])
        if i < d:
            P = _de_casteljau_step(d - i, P, S[:, 0])
    return out if d_to == d else out @ degree_raise_matrix(d, d_to).T


@lru_cache(maxsize=None)
def product_matrix_structure(d1, d2):
    """Sparse structure (rows, cols1, cols2, weights) of the BB product."""
    _check_degree(d1 + d2)
    io = index_map(d1 + d2)
    rows, c1, c2, w = [], [], [], []
    for n1, a in enumerate(multi_indices(d1)):
        for n2, b in enumerate(multi_indices(d2)):
            g = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            rows.append(io[g])
            c1.append(n1)
            c2.append(n2)
            w.append(multinomial(d1, a) * multinomial(d2, b) / multinomial(d1 + d2, g))
    return (
        np.array(rows, dtype=np.int64),
        np.array(c1, dtype=np.int64),
        np.array(c2, dtype=np.int64),
        np.array(w),
    )


def bb_product(d1, c1, d2, c2):
    """BB coefficients of the product of two polynomials on the same triangle."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    rows, i1, i2, w = product_matrix_structure(d1, d2)
    out = np.zeros(n_coeffs(d1 + d2))
    np.add.at(out, rows, w * c1[i1] * c2[i2])
    return out


def product_matrix(d1, d2, c2):
    """Matrix P with bb_product(d1, c, d2, c2) = P @ c (second factor fixed)."""
    c2 = np.asarray(c2, dtype=float)
    rows, i1, i2, w = product_matrix_structure(d1, d2)
    P = np.zeros((n_coeffs(d1 + d2), n_coeffs(d1)))
    np.add.at(P, (rows, i1), w * c2[i2])
    return P


# ---------------------------------------------------------------------------
# vertex rings and cross-edge smoothness

_RING_SLOT1 = ((0, 0), (-1, 1, 0), (-1, 0, 1), (-2, 2, 0), (-2, 0, 2), (-2, 1, 1))


def vertex_ring(d, slot):
    """The six domain-point indices closest to a vertex, in canonical order.

    Order: corner, +1 step toward each of the two other vertices, +2 steps
    toward each, then the mixed point.
    """
    if d < 2:
        raise DegreeError("vertex ring requires degree >= 2")
    base = [
        (d, 0, 0),
        (d - 1, 1, 0),
        (d - 1, 0, 1),
        (d - 2, 2, 0),
        (d - 2, 0, 2),
        (d - 2, 1, 1),
    ]
    if slot == 1:
        return base
    if slot == 2:
        return [(b, a, c) for (a, b, c) in base]
    if slot == 3:
        return [(b, c, a) for (a, b, c) in base]
    raise ValueError("slot must be 1, 2 or 3")


def ring_edge_slots(slot):
    """Slots of the two neighbor vertices, in the order used by vertex_ring."""
    return {1: (2, 3), 2: (1, 3), 3: (1, 2)}[slot]


def _edge_index(d, slots, m):
    """Multi-index on the edge (slots[0], slots[1]) with m steps toward slots[1]."""
    g = [0, 0, 0]
    g[slots[0] - 1] = d - m
    g[slots[1] - 1] = m
    return tuple(g)


def edge_row_indices(d, slots, off):
    """Multi-indices of the row `off` steps away from an edge.

    slots is the (slot_a, slot_b) pair of the edge's endpoints; entry m of
    the returned list has m steps toward slot_b.
    """
    off_slot = 6 - slots[0] - slots[1]
    out = []
    for m in range(d - off + 1):
        g = [0, 0, 0]
        g[slots[0] - 1] = d - off - m
        g[slots[1] - 1] = m
        g[off_slot - 1] = off
        out.append(tuple(g))
    return out


@lru_cache(maxsize=None)
def edge_row_positions(d, off):
    """(3, 3, d - off + 1) table: entry [a - 1, b - 1] holds the positions
    of edge_row_indices(d, (a, b), off)."""
    im = index_map(d)
    out = np.zeros((3, 3, d - off + 1), dtype=np.int64)
    for a, b in ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)):
        out[a - 1, b - 1] = [im[g] for g in edge_row_indices(d, (a, b), off)]
    return out


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
    im = index_map(d)
    coef_src = np.asarray(coef_src, dtype=float)
    c0 = {}
    for m, g in enumerate(edge_row_indices(d, dst_slots, 0)):
        c0[g] = coef_src[im[_edge_index(d, src_slots, m)]]
    c1 = dict(zip(edge_row_indices(d, dst_slots, 1),
                  c1_matrix(d, src_slots, b_off) @ coef_src))
    return c0, c1


@lru_cache(maxsize=None)
def c1_positions(d):
    """(3, 3, d, 3) table of the C1 rule across an edge: for the shared
    slots (a, b), row m of c1_matrix holds b_off[s] at column
    c1_positions(d)[a - 1, b - 1, m, s]."""
    im = index_map(d)
    pos = np.zeros((3, 3, d, 3), dtype=np.int64)
    for a, b in ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)):
        for m in range(d):
            base = _edge_index(d - 1, (a, b), m)
            for s in range(3):
                g = list(base)
                g[s] += 1
                pos[a - 1, b - 1, m, s] = im[tuple(g)]
    return pos


def c1_matrix(d, src_slots, b_off):
    """The C1 rule across an edge, as a linear map on the source patch.

    Row m gives the neighbor's first-interior-row coefficient with m steps
    toward the edge's second shared vertex (src_slots[1]): the degree-d
    source coefficients one step off the edge point (d-1-m, m) toward each
    vertex, weighted by b_off.  Slot pairs (n, 2) and weights (n, 3) give
    the n maps stacked.
    """
    slots = np.asarray(src_slots)
    pos = c1_positions(d)[slots[..., 0] - 1, slots[..., 1] - 1]
    C = np.zeros(pos.shape[:-1] + (n_coeffs(d),))
    b_off = np.asarray(b_off, dtype=float)[..., None, :]
    np.put_along_axis(C, pos, np.broadcast_to(b_off, pos.shape), axis=-1)
    return C


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
    im = index_map(d)
    coef_b = np.asarray(coef_b, dtype=float)
    gap0 = max(abs(coef_b[im[g]] - v) for g, v in c0.items())
    gap1 = max(abs(coef_b[im[g]] - v) for g, v in c1.items())
    return gap0, gap1
