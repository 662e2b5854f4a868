"""Bernstein-Bezier algebra on triangles.

Polynomials are stored as flat coefficient vectors in the fixed
lexicographic ordering of ``multi_indices`` (i descending, then j
descending).  All functions here are pure and operate on immutable
inputs, so they are safe to share across threads.

Degrees up to ``MAX_DEGREE`` = 10 are supported; the library itself
only uses d in {1, ..., 6}.
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


# ---------------------------------------------------------------------------
# barycentric coordinates

def triangle_area(tri):
    """Signed area of a triangle (3, 2) or of each of (..., 3, 2)."""
    tri = np.asarray(tri, dtype=float)
    a, b = tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :]
    return 0.5 * (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])


def degenerate(tri):
    """Whether each triangle of (..., 3, 2) is degenerate: twice its area
    below 2e-14 times the square of its largest coordinate (at least 1)."""
    scale = np.maximum(np.abs(tri).max(axis=(-2, -1)), 1.0)
    return np.abs(2.0 * triangle_area(tri)) < 2e-14 * scale * scale


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
    if degenerate(tri).any():
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
    b = barycentric_many(tri, np.stack([tri[..., 0, :] + u, tri[..., 0, :]], axis=-2))
    return b[..., 0, :] - b[..., 1, :]


# ---------------------------------------------------------------------------
# evaluation

def bernstein_matrix(d, bary):
    """Design matrix of all degree-d Bernstein polynomials at barycentric points.

    bary: (..., n, 3) array; returns (..., n, n_coeffs(d)).
    """
    return design_matrices(d, bary, order=0)[0]


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


def design_matrices(d, bary, order=2):
    """Bernstein matrices [B_d, B_{d-1}, ..., B_{d-order}] at barycentric
    points (..., n, 3), each (..., n, n_coeffs(d - s)): what
    frame_derivatives reads for derivatives up to `order`.

    Each coordinate is raised to the powers 0..d once, and the column of
    (i, j, k) is multinomial * x**i * y**j * z**k from that table, in
    that order."""
    _check_degree(d)
    bary = np.asarray(bary, dtype=float)
    flat = bary.reshape(-1, 3)
    x, y, z = (np.array([flat[:, c] ** p for p in range(d + 1)]) for c in range(3))
    out = []
    for e in range(d, d - min(order, d) - 1, -1):
        i, j, k = np.array(multi_indices(e)).T
        m = np.array([multinomial(e, ijk) for ijk in multi_indices(e)], dtype=float)
        B = np.ascontiguousarray((m[:, None] * x[i] * y[j] * z[k]).T)   # columns as rows
        out.append(B.reshape(bary.shape[:-1] + (len(m),)))
    return out


def frames(tri):
    """(..., 2, 2) frames M of triangles (..., 3, 2): row 0 holds the first
    two directional coordinates of x, row 1 those of y, so that M maps the
    derivatives along e0 - e2 and e1 - e2 to those along x and y."""
    ax = directional_coords(tri, (1.0, 0.0))
    ay = directional_coords(tri, (0.0, 1.0))
    return np.stack([ax[..., :2], ay[..., :2]], axis=-2)


@lru_cache(maxsize=None)
def frame_diff(d):
    """(2, n_coeffs(d - 1), n_coeffs(d)): d times the difference matrices
    along e0 - e2 and e1 - e2, so that frame_diff(d)[s] @ c holds the
    degree-(d-1) coefficients of the derivative along direction s."""
    D = d * diff_matrix(d, np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]))
    D.flags.writeable = False
    return D


def cartesian_diff(d, C, M):
    """[cx, cy], each (g, n_coeffs(d - 1), k): BB coefficients of the x and
    y derivatives of degree-d polynomials C (g, nc, k) on triangles with
    frames M (g, 2, 2): M, constant on a triangle, applied to the stacked
    frame_diff(d) product, one per triangle."""
    c0, c1 = np.split(frame_diff(d).reshape(-1, C.shape[-2]) @ C, 2, axis=-2)
    return [M[:, i, :1, None] * c0 + M[:, i, 1:, None] * c1 for i in (0, 1)]


def frame_coefficients(d, C, M, order=2):
    """[[C], [cx, cy], [cxx, cxy, cyy]] up to the derivative order `order`:
    the BB coefficients, each (g, n_coeffs(d - s), k) for order s, of the
    derivatives of the degree-d polynomials C (g, nc, k) on g triangles
    with frames M (g, 2, 2) (see frames).  The gradient's coefficients are
    cartesian_diff of C, the Hessian's cartesian_diff of cx (cxx, cxy) and
    of cy (cyy)."""
    coeffs = [[C]]
    if order > 0:
        coeffs.append(cartesian_diff(d, C, M))
    if order > 1:
        cx, cy = coeffs[1]
        coeffs.append(cartesian_diff(d - 1, cx, M) + cartesian_diff(d - 1, cy, M)[1:])
    return coeffs


def frame_derivatives(d, C, B, M, orders=(0, 1, 2)):
    """[v], [gx, gy] or [hxx, hxy, hyy], each (g, n, k), for each order in
    `orders` (ascending), of the degree-d BB coefficients C (g, nc, k) on g
    triangles with frames M (g, 2, 2), at the n points of the degree-(d-s)
    Bernstein matrices B[s], shared (n, .) or stacked (g, n, .): the
    frame_coefficients of C, Bernstein matrices last."""
    coeffs = frame_coefficients(d, C, M, max(orders))
    return [B[s] @ c for s in orders for c in coeffs[s]]


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


def reexpand(d, coeffs, S):
    """Degree-d BB polynomials on a triangle T rewritten on other triangles.

    coeffs: (n, n_coeffs(d)), one polynomial per row; S: (n, 3, 3), row i
    of S[k] holding the barycentric coordinates w.r.t. T of vertex i of
    target triangle k (which may reach outside T).  Returns the (n,
    n_coeffs(d)) coefficients of the same polynomials on the targets.

    This is de Casteljau subdivision: target coefficient
    (i, j, k) is the blossom at i copies of the first target vertex, j of
    the second and k of the third.  On sub-triangles every step is a
    convex combination, so no conditioning is lost.
    """
    S = np.asarray(S, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
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
    return out


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


def product_matrix(d1, d2, c2):
    """Matrix P mapping c to the BB coefficients of the product of the degree-d1
    polynomial c with the degree-d2 polynomial c2 on the same triangle; for
    a stack of coefficient vectors c2 (..., n), the stack of matrices."""
    c2 = np.asarray(c2, dtype=float)
    rows, i1, i2, w = product_matrix_structure(d1, d2)
    P = np.zeros(c2.shape[:-1] + (n_coeffs(d1 + d2), n_coeffs(d1)))
    np.add.at(P, (..., rows, i1), w * c2[..., i2])
    return P


# ---------------------------------------------------------------------------
# vertex rings and cross-edge smoothness

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


@lru_cache(maxsize=None)
def c1_positions(d):
    """(3, 3, d, 3) table of the C1 rule across an edge: for the shared
    slots (a, b), row m of c1_matrix holds b_off[s] at column
    c1_positions(d)[a - 1, b - 1, m, s]."""
    im = index_map(d)
    pos = np.zeros((3, 3, d, 3), dtype=np.int64)
    for a, b in ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)):
        for m, base in enumerate(edge_row_indices(d - 1, (a, b), 0)):
            for s in range(3):
                g = list(base)
                g[s] += 1
                pos[a - 1, b - 1, m, s] = im[tuple(g)]
    return pos


def c1_matrix(d, src_slots, b_off, rows=slice(None)):
    """The C1 rule across an edge, as a linear map on the source patch.

    Row m gives the neighbor's first-interior-row coefficient with m steps
    toward the edge's second shared vertex (src_slots[1]): the degree-d
    source coefficients one step off the edge point (d-1-m, m) toward each
    vertex, weighted by b_off.  Slot pairs (n, 2) and weights (n, 3) give
    the n maps stacked, each built only in the slice `rows` of its rows."""
    slots = np.asarray(src_slots)
    pos = c1_positions(d)[slots[..., 0] - 1, slots[..., 1] - 1, rows]
    C = np.zeros(pos.shape[:-1] + (n_coeffs(d),))
    b_off = np.asarray(b_off, dtype=float)[..., None, :]
    np.put_along_axis(C, pos, np.broadcast_to(b_off, pos.shape), axis=-1)
    return C
