"""The C1 quintic spline space with homogeneous boundary values.

Splines are piecewise quintic on ordinary triangles, sextic on buffer
triangles, and of the form (conic factor) * (quartic) on pie triangles,
twice differentiable at interior vertices and vanishing on the curved
boundary.  Degrees of freedom form a 1-local minimal determining set with
five categories:

  vertex-jet      six coefficients around each interior vertex (2-jet)
  edge            one interior coefficient per plain interior edge
  tangent-corner  the factor value at boundary vertices with a tangent
  pie             five factor coefficients per pie triangle
  buffer          two interior coefficients per buffer triangle

``build_space`` runs the constructive fill once, as sparse linear
equations: each step sets BB coefficients of all its triangles at once
to weighted sums of dofs or of coefficients set before it, and a later
definition of a coefficient is checked against the first.  Solving them
level by level of the fill (a coefficient set from dofs alone is level
0, any other one above the highest level it reads), each coefficient's
row once, gives the map from dofs to all coefficients; split by
triangle, it gives per triangle the linear map from its local dofs to
its BB coefficients.  The maps are stored once, stacked per group of triangles
of one kind and local dof count (MapGroup); a spline is its dof vector,
and its pieces are these maps applied to it, read only through the
groups: point queries locate all points at once (SplineSpace.locate),
then evaluate them one map group at a time (SplineFunction.evaluate).
Spaces and splines are immutable after construction and safe to share
across threads; propagation of different dof vectors may run concurrently.
"""

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import bernstein as bb
from .geometry import eval_conic, grad_conic, is_number_list, pie_conic
from .mesh import BUFFER, ORDINARY, PIE, mesh_from_dict, mesh_to_dict

VERTEX_JET = "vertex-jet"
EDGE_INTERIOR = "edge"
TANGENT_CORNER = "tangent-corner"
PIE_FACTOR = "pie"
BUFFER_INTERIOR = "buffer"

_PIE_LOCALS = ((1, 3, 0), (1, 2, 1), (1, 1, 2), (1, 0, 3), (0, 2, 2))
_BUFFER_LOCALS = ((4, 1, 1), (2, 2, 2))

# degree of the coefficients stored per triangle (the quartic factor on pies)
_STORED_DEGREE = {ORDINARY: 5, BUFFER: 6, PIE: 4}

# points and triangles per block of SplineSpace.locate (a few MB of scores)
_BLOCK = 256


class SpaceError(RuntimeError):
    """Spline-space construction, or reading a spline file, failed."""


class PropagationError(SpaceError):
    """Inconsistent coefficient fill (should not happen on valid meshes)."""


@dataclass(eq=False)
class MinimalDeterminingSet:
    """The determining set as arrays over its dofs: the designated triangle
    `tri`, whose stored coefficients carry the dof's coefficient (the
    quartic factor's on pies) at position `pos`, and the `owner` vertex,
    edge or triangle.  Dofs come in category blocks (slices in `blocks`),
    in the order of `counts`, each owner's dofs in a row."""

    tri: np.ndarray
    pos: np.ndarray
    owner: np.ndarray
    counts: dict

    def __post_init__(self):
        ends = np.cumsum([n * self.counts[c] for c, n in _PER_OWNER.items()])
        self.blocks = {c: slice(int(e) - n * self.counts[c], int(e))
                       for (c, n), e in zip(_PER_OWNER.items(), ends)}

    @property
    def dimension(self):
        return len(self.tri)


# dofs per owner of each category, in dof order
_PER_OWNER = {VERTEX_JET: 6, EDGE_INTERIOR: 1, TANGENT_CORNER: 1, PIE_FACTOR: 5,
              BUFFER_INTERIOR: 2}


def _slots(verts, tris, v):
    """0-based slots of the vertices v (n, m) in the triangles tris (n,)."""
    return (verts[tris][:, None, :] == v[:, :, None]).argmax(axis=-1)


@lru_cache(maxsize=None)
def _ring_pos(d):
    """(3, 6) positions of the degree-d vertex ring at each 0-based slot."""
    im = bb.index_map(d)
    return np.array([[im[g] for g in bb.vertex_ring(d, s)] for s in (1, 2, 3)])


def _edge_rows(d, slots, off):
    """Positions (n, d - off + 1) of bb.edge_row_indices(d, slots + 1, off)
    for 0-based slot pairs (n, 2)."""
    return bb.edge_row_positions(d, off)[slots[:, 0], slots[:, 1]]


def build_mds(mesh):
    """The minimal determining set of the space over a validated mesh.

    Designated triangles are chosen by lowest triangle index.  The
    dimension is 6|V_I| + |E_I0| + |V_B1| + 5|pies| + 2|buffers|.
    """
    verts, kinds = mesh.tri_verts, mesh.tri_kind
    n_tri = len(verts)

    def lowest(kind):     # lowest triangle of a kind at each vertex, else n_tri
        tris = np.flatnonzero(kinds == kind)
        out = np.full(mesh.n_vertices, n_tri)
        np.minimum.at(out, verts[tris].ravel(), np.repeat(tris, 3))
        return out

    # validation leaves every interior vertex and plain interior edge an
    # ordinary triangle
    iv = np.flatnonzero(~mesh.vertex_is_boundary)
    vt = lowest(ORDINARY)[iv]
    et = mesh.edge_tris
    ek = kinds[et]
    pie_buffer = (np.sort(ek, axis=1) == [BUFFER, PIE]).all(axis=1)
    pe = np.flatnonzero((et[:, 1] >= 0) & ~pie_buffer)
    edge_t = np.where(ek[pe] == ORDINARY, et[pe], n_tri).min(axis=1)
    edge_slots = _slots(verts, edge_t, mesh.edge_verts[pe])

    bv = np.flatnonzero(mesh.vertex_tangent)
    ct = lowest(PIE)[bv]
    pies, buffers = np.flatnonzero(kinds == PIE), np.flatnonzero(kinds == BUFFER)
    im4, im6 = bb.index_map(4), bb.index_map(6)
    # per category: owners, designated triangles, positions (owner, dof)
    parts = {
        VERTEX_JET: (iv, vt, _ring_pos(5)[_slots(verts, vt, iv[:, None])[:, 0]]),
        EDGE_INTERIOR: (pe, edge_t, _edge_rows(5, edge_slots, 1)[:, 2:3]),
        TANGENT_CORNER: (bv, ct, _ring_pos(4)[_slots(verts, ct, bv[:, None])[:, 0], :1]),
        PIE_FACTOR: (pies, pies, np.tile([im4[g] for g in _PIE_LOCALS], (len(pies), 1))),
        BUFFER_INTERIOR: (buffers, buffers,
                          np.tile([im6[g] for g in _BUFFER_LOCALS], (len(buffers), 1))),
    }
    owner, tri = (np.concatenate([np.repeat(p[k], _PER_OWNER[c]) for c, p in parts.items()])
                  for k in (0, 1))
    pos = np.concatenate([p[2].ravel() for p in parts.values()]).astype(np.int64)
    return MinimalDeterminingSet(tri, pos, owner, {c: len(p[0]) for c, p in parts.items()})


# ---------------------------------------------------------------------------
# jet <-> vertex ring maps

# the two other vertices of each slot, 0-based, in the order of bb.vertex_ring
_RING_EDGE = np.array([[1, 2], [0, 2], [0, 1]])


def _stack(rows):
    """Rows of (...)-shaped entries as a contiguous (..., r, c) stack."""
    return np.ascontiguousarray(np.moveaxis(np.array(rows), (0, 1), (-2, -1)))


def jet_to_ring_matrices(tris, slots, d):
    """(n, 6, 6) maps from a Cartesian 2-jet (v, gx, gy, hxx, hxy, hyy) at a
    vertex to the six ring coefficients in canonical ring order, for
    triangles (n, 3, 2), the vertex's slots (n,) (1, 2 or 3) and degrees d.

    Squares go through np.float_power, the C pow of a scalar x ** 2: x * x
    rounds differently for about 1 in 1000 inputs, and the Newton counts
    depend on the last bits of the fill."""
    tris, rows = np.asarray(tris, dtype=float), np.arange(len(tris))
    slots = np.asarray(slots) - 1
    (a0, a1), (b0, b1) = (tris[rows, _RING_EDGE[slots, k]].T - tris[rows, slots].T
                          for k in (0, 1))
    d1 = np.broadcast_to(np.asarray(d, dtype=float), rows.shape)
    d2 = d1 * (d1 - 1)
    o, c, sq = np.zeros_like(d1), np.ones_like(d1), lambda x: np.float_power(x, 2)
    return _stack([
        [c, o, o, o, o, o],
        [c, a0 / d1, a1 / d1, o, o, o],
        [c, b0 / d1, b1 / d1, o, o, o],
        [c, 2 * a0 / d1, 2 * a1 / d1, sq(a0) / d2, 2 * a0 * a1 / d2, sq(a1) / d2],
        [c, 2 * b0 / d1, 2 * b1 / d1, sq(b0) / d2, 2 * b0 * b1 / d2, sq(b1) / d2],
        [c, (a0 + b0) / d1, (a1 + b1) / d1,
         a0 * b0 / d2, (a0 * b1 + a1 * b0) / d2, a1 * b1 / d2],
    ])


@lru_cache(maxsize=None)
def quintic_reduction():
    """21x28 map from a sextic's BB coefficients on a triangle to those of
    the quintic with the same 2-jet at each vertex whose three middle
    coefficients interpolate the sextic at the quintic's domain points.

    A vertex ring depends only on the derivatives along the two edges at
    the vertex, so the map is the same on every triangle; it is formed on
    the unit triangle."""
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    lam = np.array(bb.multi_indices(5), dtype=float) / 5
    R = np.linalg.solve(bb.bernstein_matrix(5, lam), bb.bernstein_matrix(6, lam))
    J = jet_to_ring_matrices(np.stack([unit, unit]), [1, 1], [5, 6])
    K = J[0] @ np.linalg.inv(J[1])
    im5, im6 = bb.index_map(5), bb.index_map(6)
    for slot in (1, 2, 3):
        rows = [im5[g] for g in bb.vertex_ring(5, slot)]
        R[rows] = 0.0
        R[np.ix_(rows, [im6[g] for g in bb.vertex_ring(6, slot)])] = K
    return R


# ---------------------------------------------------------------------------
# the corner system of the pie factor

def corner_block(P):
    """The (..., 6, 6) block of pie product matrices P (..., 28, 15)
    (bernstein.product_matrix(4, 2, q)) that maps the factor's vertex ring
    at the pie interior vertex (0-based slot 0) to the product's, canonical
    ring order.  With q normalized by geometry.pie_conic (1 at the
    interior vertex, 0 at the other two) it is lower triangular with a
    positive diagonal: the corner system that fixes the factor's ring."""
    return P[..., _ring_pos(6)[0][:, None], _ring_pos(4)[0]]


# ---------------------------------------------------------------------------
# the fill as sparse linear equations

def _concat(entries):
    return tuple(np.concatenate(x) for x in zip(*entries))


def _ranges(start, length):
    """The indices start[i]..start[i] + length[i] - 1 for each i, and the i of each."""
    i = np.repeat(np.arange(len(start)), length)
    return np.arange(len(i)) + (start + length - np.cumsum(length))[i], i


def _bits(n):
    return max(int(n) - 1, 0).bit_length()          # that hold 0..n - 1


def _sorted(key, width):
    """(order, key[order]) for int64 keys below 2**width, equal keys in
    their order, sorting key in place: one sort of the keys with the
    entry number in the low bits when that fits in int64."""
    bits = _bits(len(key))
    if width + bits > 63:
        order = np.argsort(key, kind="stable")
        key[:] = key[order]
        return order, key
    key <<= bits
    key |= np.arange(len(key))
    key.sort()
    order = key & ((1 << bits) - 1)
    key >>= bits
    return order, key


def _starts(key):
    """The indices at which sorted keys change, from 0."""
    return np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))


def _sums(row, col, rank, val, bounds):
    """The distinct (row, col) pairs of entries, in order, and the sum of
    each pair's vals in order of rank (distinct within a pair), formed
    from +0.0 by np.bincount; bounds are those of row, col and rank."""
    rb, cb, kb = (_bits(b) for b in bounds)
    order, key = _sorted((row << cb | col) << kb | rank, rb + cb + kb)
    key >>= kb
    at = _starts(key)
    group = np.repeat(np.arange(len(at)), np.diff(at, append=len(key)))
    return key[at] >> cb, key[at] & ((1 << cb) - 1), np.bincount(group, weights=val[order])


def _absmax(row, val, n):
    out = np.zeros(n)                                # 0 for a row without entries
    np.maximum.at(out, row, np.abs(val))
    return out


class _Propagator:
    """Runs the constructive fill over a mesh as sparse linear equations.

    Every stored BB coefficient (patch coefficients on ordinary and buffer
    triangles, factor coefficients on pies) has a global index.  Each fill
    step sets target coefficients to weighted sums of dofs (a row of S) or
    of coefficients set by earlier steps (a row of W).  Row k < n is the
    first equation of coefficient k, which defines it; row n + i is the
    i-th later equation (a check row).  W is strictly triangular, so the
    map Z = S + W Z from dofs to coefficients is formed by fill level: a
    row of level 0 is its dof entries as emitted, a row of level L >= 1
    reads rows of lower levels only and is W_r Z, each entry summed from
    +0.0 over W_r by ascending source, exact zeros dropped.  These are the
    sums and entries of sparse products of W and S as CSR matrices, so the
    maps and fill_defect are theirs bit for bit (_solve).
    """

    def __init__(self, mesh, mds):
        self.mesh = mesh
        self.mds = mds
        self.verts, self.kinds = mesh.tri_verts, mesh.tri_kind
        self.coords = mesh.vertices[self.verts]
        self.degree = np.select([self.kinds == k for k in _STORED_DEGREE],
                                list(_STORED_DEGREE.values()))
        self.offset = np.concatenate([[0], np.cumsum((self.degree + 1) * (self.degree + 2) // 2)])
        self.targets = []                      # per step, in fill order
        self.n_eq = 0
        self.entries = {False: [], True: []}   # keyed by "sources are dofs"
        # per pie, in mesh order: the normalized conic (n_pies, 6) and its
        # product matrix (n_pies, 28, 15); pie t is row pie_row[t]
        pies = np.flatnonzero(self.kinds == PIE)
        self.pie_row = np.full(len(self.verts), -1)
        self.pie_row[pies] = np.arange(len(pies))
        self.pie_scale = np.full(len(self.verts), np.nan)
        self.pie_q, self.pie_scale[pies] = pie_conic(mesh.domain.coeffs[mesh.tri_arc[pies]],
                                                     self.coords[pies])
        self.pie_P = bb.product_matrix(4, 2, self.pie_q)

    # -- helpers ----------------------------------------------------------

    def _emit(self, tris, locs, weights, src, from_dofs=False):
        """Equations coef(tris[a, i], locs[a, i]) = sum_j weights[a, i, j] *
        source src[a, j], for triangles (n, r) (or (n,), one per row a),
        stored positions (n, r), weights (n, r, c) and sources (n, c),
        numbered a-major.

        Sources are dof numbers when from_dofs is set, else global
        coefficient indices, which earlier steps must have set."""
        locs = np.asarray(locs, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        tris = np.asarray(tris)
        c = weights.shape[2]
        k = np.flatnonzero(weights)            # (a, i, j) in C order
        src = np.broadcast_to(np.asarray(src, dtype=np.int64)[:, None], weights.shape)
        self.entries[from_dofs].append((self.n_eq + k // c, src.ravel()[k], weights.ravel()[k]))
        self.targets.append((self.offset[tris if tris.ndim == 2 else tris[:, None]]
                             + locs).ravel())
        self.n_eq += locs.size

    def _where(self, k):
        """(triangle, local position) of a global coefficient index."""
        t = int(np.searchsorted(self.offset, k, side="right")) - 1
        return t, int(k - self.offset[t])

    def _neighbours(self, tris, edges):
        """The triangle across the interior edge edges[i] from tris[i]."""
        return self.mesh.edge_tris[edges].sum(axis=1) - tris

    def _across(self, src, dst, shared):
        """0-based slots (n, 2) of the shared vertices (n, 2) in src (n,)
        and in dst (n,), and the barycentric coordinates (n, 3) of dst's
        off-edge vertex w.r.t. src (the C1 weights)."""
        ss, ds = _slots(self.verts, src, shared), _slots(self.verts, dst, shared)
        w = self.coords[dst, 3 - ds.sum(axis=1)]
        return ss, ds, bb.barycentric_many(self.coords[src], w[:, None])[:, 0]

    # -- pipeline ----------------------------------------------------------

    def run(self):
        """Run the fill and return the coefficient map Z (see _solve); sets
        self.defect from the check rows."""
        self._seed_dofs()
        self._fill_rings()
        self._fill_ordinary()
        self._fill_buffer_from_ordinary()
        self._fill_factor_corners()
        self._fill_chords_and_buffer_edges()
        self._finish_pies_and_buffers()
        return self._solve()

    def _solve(self):
        """Z as entries (coefficient, dof, value): the definitions' dof
        entries as emitted, then the rows formed by level; none of a check."""
        n, n_eq, dim = self.offset[-1], self.n_eq, self.mds.dimension
        target = np.concatenate(self.targets)
        first = np.full(n, n_eq)           # first equation of each coefficient
        np.minimum.at(first, target, np.arange(n_eq))
        eq, src, w = _concat(self.entries.pop(False))
        for e in eq[first[src] >= eq][:1]:
            t, _ = self._where(target[e])
            raise PropagationError(f"fill of triangle {t} reads an unset coefficient")
        checks = np.flatnonzero(first[target] != np.arange(n_eq))
        n_chk, eqs = len(checks), np.concatenate([first, checks])   # the equation of each row
        row = target.copy()
        row[checks] = n + np.arange(n_chk)
        # W by row, then source (the order of each sum), with each entry's rank in its row
        order, _ = _sorted(row[eq] << _bits(n) | src, _bits(n + n_chk) + _bits(n))
        row, src, w = row[eq[order]], src[order], w[order]
        rank = np.arange(len(src)) - np.searchsorted(row, row)
        level = np.zeros(n + n_chk, dtype=np.int64)
        above = np.zeros(n + n_chk, dtype=bool)     # the rows of level >= L, from L = 1
        above[row] = True
        while above.any():                          # level >= L + 1: reads a row of level >= L
            level += above
            above = np.bincount(row[above[src]], minlength=n + n_chk) > 0
        # row k: entries start[k]:start[k] + length[k] of the dof entries at
        # level 0, else of the rows formed so far
        deq, dof, dw = _concat(self.entries.pop(True))
        length = np.bincount(deq, minlength=n_eq + 1)
        start, length = (np.cumsum(length) - length)[eqs], length[eqs]
        formed = (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)

        def take(rows):
            """Entries (i, dof, value) of the rows rows[i]."""
            hi, parts = level[rows] > 0, []
            for at, (_, cols, vals) in ((np.flatnonzero(~hi), (deq, dof, dw)),
                                        (np.flatnonzero(hi), formed)):
                idx, i = _ranges(start[rows[at]], length[rows[at]])
                parts.append((at[i], cols[idx], vals[idx]))
            return _concat(parts)

        for L in range(1, level.max(initial=0) + 1):
            rows, at = np.flatnonzero(level == L), np.flatnonzero(level[row] == L)
            i, col, z = take(src[at])
            r, c, v = _sums(np.searchsorted(rows, row[at])[i], col, rank[at][i], w[at][i] * z,
                            (len(rows), dim, rank.max(initial=0) + 1))
            r, c, v = r[v != 0], c[v != 0], v[v != 0]
            length[rows] = np.bincount(r, minlength=len(rows))
            start[rows] = len(formed[0]) + np.cumsum(length[rows]) - length[rows]
            formed = _concat([formed, (eqs[rows[r]], c, v)])
        # each check row minus its coefficient's row
        a_row, a_col, a_val = take(n + np.arange(n_chk))
        f_row, f_col, f_val = take(target[checks])
        d_row, _, d_val = _sums(np.concatenate([a_row, f_row]), np.concatenate([a_col, f_col]),
                                np.repeat([0, 1], [len(a_row), len(f_row)]),
                                np.concatenate([a_val, -f_val]), (n_chk, dim, 2))
        gaps = _absmax(d_row, d_val, n_chk) / np.maximum(np.maximum(
            _absmax(a_row, a_val, n_chk), _absmax(f_row, f_val, n_chk)), 1.0)
        self.defect = float(gaps.max(initial=0.0))
        for c in np.flatnonzero(gaps > 1e-8)[:1]:
            t, i = self._where(target[checks[c]])
            g = bb.multi_indices(int(self.degree[t]))[i]
            raise PropagationError(f"inconsistent fill at triangle {t}, index {g} "
                                   f"(gap {gaps[c]:.2e})")
        for k in np.flatnonzero(first == self.n_eq)[:1]:
            t, i = self._where(k)
            raise PropagationError(f"coefficient {i} of triangle {t} unset")
        del row, src, w, rank, a_row, a_col, a_val, f_row, f_col, f_val, d_row, d_val  # spent
        eq, dof, val = _concat([(deq, dof, dw), formed])
        keep = (first[target] == np.arange(n_eq))[eq]                  # not a check's entry
        return target[eq[keep]], dof[keep], val[keep]

    def _seed_dofs(self):
        n = self.mds.dimension
        self._emit(self.mds.tri, self.mds.pos[:, None], np.ones((n, 1, 1)),
                   np.arange(n)[:, None], from_dofs=True)

    def _fill_rings(self):
        """The ring of every triangle at each interior vertex, from the
        vertex's 2-jet (the product's ring, then the factor's, on pies),
        in the order of triangles, then slots."""
        mds, kinds = self.mds, self.kinds
        # the 2-jet of each interior vertex from its six dofs
        jet_t, jet_v = (x[mds.blocks[VERTEX_JET]][::6] for x in (mds.tri, mds.owner))
        slots = _slots(self.verts, jet_t, jet_v[:, None])[:, 0] + 1
        R = np.linalg.inv(jet_to_ring_matrices(self.coords[jet_t], slots, 5))
        jet = np.full(self.mesh.n_vertices, -1)
        jet[jet_v] = np.arange(len(jet_v))
        tt, ss = np.nonzero(jet[self.verts] >= 0)
        j = jet[self.verts[tt, ss]]
        weights = jet_to_ring_matrices(self.coords[tt], ss + 1,
                                       np.where(kinds[tt] == ORDINARY, 5, 6)) @ R[j]
        pie = np.flatnonzero(kinds[tt] == PIE)
        weights[pie] = np.linalg.solve(corner_block(self.pie_P[self.pie_row[tt[pie]]]),
                                       weights[pie])
        locs = np.array([_ring_pos(d) for d in (4, 5, 6)])[self.degree[tt] - 4, ss]
        self._emit(tt, locs, weights, 6 * j[:, None] + np.arange(6), from_dofs=True)

    def _fill_ordinary(self):
        """Edge-interior coefficients via the smoothness rule, across each
        plain edge from the edge dof's triangle to an ordinary neighbour."""
        src, edges = (x[self.mds.blocks[EDGE_INTERIOR]] for x in (self.mds.tri, self.mds.owner))
        shared = self.mesh.edge_verts[edges]
        dst = self._neighbours(src, edges)
        keep = self.kinds[dst] == ORDINARY
        src, dst, shared = src[keep], dst[keep], shared[keep]
        ss, ds, b_off = self._across(src, dst, shared)
        self._emit(dst, _edge_rows(5, ds, 1)[:, 2:3], bb.c1_matrix(5, ss + 1, b_off, slice(2, 3)),
                   self.offset[src, None] + np.arange(bb.n_coeffs(5)))

    def _fill_buffer_from_ordinary(self):
        """Each buffer's edge row and first row off its inner edge, from
        the triangle across it, ordinary by (b), (c) and (g)."""
        bufs = np.flatnonzero(self.kinds == BUFFER)
        shared = self.verts[bufs, 1:]
        src = self._neighbours(bufs, self.mesh.tri_edges[bufs, 1])
        ss, ds, b_off = self._across(src, bufs, shared)
        raise_m = bb.degree_raise_matrix(5, 6)
        weights = np.concatenate([raise_m[_edge_rows(6, ss, 0)],
                                  bb.c1_matrix(6, ss + 1, b_off) @ raise_m], axis=1)
        self._emit(bufs, np.hstack([_edge_rows(6, ds, 0), _edge_rows(6, ds, 1)]),
                   weights, self.offset[src, None] + np.arange(bb.n_coeffs(5)))

    def _fill_factor_corners(self):
        """The factor's value at each boundary vertex on both pies there:
        zero at a non-tangent corner, else the corner dof and its scaled
        copy."""
        mesh = self.mesh
        # each boundary vertex is slot 1 or 2 of two pies: rows by vertex, then pie
        pies = np.flatnonzero(self.kinds == PIE)
        v, t, slot = self.verts[pies, 1:].ravel(), np.repeat(pies, 2), np.tile([1, 2], len(pies))
        order = np.lexsort((t, v))
        v, t, slot = v[order], t[order], slot[order]
        tangent = mesh.vertex_tangent[v]
        # value on the designated pie is the dof; the partner is scaled by
        # the ratio of the normalized conic gradients
        g = (grad_conic(mesh.domain.coeffs[mesh.tri_arc[t]], mesh.vertices[v])
             / self.pie_scale[t, None]).reshape(-1, 2, 2)
        i = np.argmax(np.abs(g[:, 1]), axis=1)
        g1, g2 = (g[np.arange(len(i)), k, i] for k in (0, 1))
        for u in v[::2][tangent[::2] & (g2 == 0.0)][:1]:
            raise SpaceError(f"vanishing conic gradient at boundary vertex {u}")
        ratio = np.divide(g1, g2, out=np.zeros_like(g1), where=tangent[::2])
        weights = np.where(tangent, np.column_stack([np.ones_like(ratio), ratio]).ravel(), 0.0)
        corners = self.mds.blocks[TANGENT_CORNER]
        dof = np.zeros(mesh.n_vertices, dtype=np.int64)     # the corner dof of a vertex
        dof[self.mds.owner[corners]] = np.arange(corners.start, corners.stop)
        self._emit(t, _ring_pos(4)[slot, :1], weights[:, None, None], dof[v, None],
                   from_dofs=True)

    @cached_property
    def _pie_edges(self):
        """Two per pie, (v1, v3) then (v1, v2): the pie, the buffer across
        the edge, the edge's vertices (n, 2), the position of the chord
        coefficient at its boundary end, the conic's edge coefficient."""
        pies = np.repeat(np.flatnonzero(self.kinds == PIE), 2)
        shared = np.column_stack([self.verts[pies, 0],
                                  self.verts[pies[::2]][:, [2, 1]].ravel()])
        chord = np.tile([bb.index_map(4)[g] for g in ((0, 1, 3), (0, 3, 1))], len(pies) // 2)
        im = bb.index_map(2)
        q_edge = self.pie_q[self.pie_row[pies[::2]]][:, [im[(1, 0, 1)], im[(1, 1, 0)]]].ravel()
        edges = self.mesh.tri_edges[pies[::2]][:, [2, 0]].ravel()
        return pies, self._neighbours(pies, edges), shared, chord, q_edge

    def _fill_chords_and_buffer_edges(self):
        """Per pie edge, in turn: the buffer's edge row from the product's,
        then the pie's chord coefficient, which C1 from the buffer fixes
        through the product's first-row entry at the boundary-vertex end."""
        t, buf, shared, chord, q_edge = self._pie_edges
        for i in np.flatnonzero(np.abs(q_edge) < 1e-12)[:1]:
            raise SpaceError(f"pie {t[i]}: conic edge coefficient vanishes (gradient condition)")
        ss, ds, b_off = self._across(buf, t, shared)
        n, P = len(t), self.pie_P[self.pie_row[t]]
        row = P[np.arange(n), _edge_rows(6, ds, 1)[:, 4]]
        weights = np.concatenate([bb.c1_matrix(6, ss + 1, b_off, slice(4, 5))[:, 0], -row], axis=1)
        weights[np.arange(n), bb.n_coeffs(6) + chord] = 0.0   # the unknown itself
        weights /= row[np.arange(n), chord][:, None]
        # per edge 8 rows: the buffer's 7 edge-row entries from the pie's
        # own coefficients, then the chord coefficient from both triangles
        nb = bb.n_coeffs(6)
        rows = np.zeros((n, 8, nb + bb.n_coeffs(4)))
        rows[:, :7, nb:] = P[np.arange(n)[:, None], _edge_rows(6, ds, 0)]
        rows[:, 7] = weights
        self._emit(np.column_stack([np.repeat(buf[:, None], 7, axis=1), t]),
                   np.column_stack([_edge_rows(6, ss, 0), chord]), rows,
                   np.hstack([self.offset[buf, None] + np.arange(nb),
                              self.offset[t, None] + np.arange(bb.n_coeffs(4))]))

    def _finish_pies_and_buffers(self):
        """Each buffer's first row off its pie edges, from the pie."""
        t, buf, shared, _, _ = self._pie_edges
        ss, ds, b_off = self._across(t, buf, shared)
        weights = bb.c1_matrix(6, ss + 1, b_off) @ self.pie_P[self.pie_row[t]]
        self._emit(buf, _edge_rows(6, ds, 1), weights,
                   self.offset[t, None] + np.arange(bb.n_coeffs(4)))


# ---------------------------------------------------------------------------
# the assembled space

def _points(pts):
    """pts as an (n, 2) float array; ValueError unless of shape (n, 2) or (2,)."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != 2:
        raise ValueError(f"points of shape {pts.shape}, expected (n, 2) or (2,)")
    return pts.reshape(-1, 2)


class SplineSpace:
    """Mesh + determining set + dof-to-coefficient maps, stored once per
    group of triangles (see MapGroup) in `groups`.

    pie_scale (a float per triangle, NaN off pies) is each pie's conic at
    its interior vertex."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.mds = build_mds(mesh)
        prop = _Propagator(mesh, self.mds)
        self.groups = _map_groups(mesh, prop, prop.run())
        self.fill_defect = prop.defect
        self.pie_scale = prop.pie_scale
        # the map of triangle t is row _row[t] of groups[_group[t]]
        self._group, self._row = np.zeros((2, mesh.n_triangles), dtype=np.int64)
        for g, grp in enumerate(self.groups):
            self._group[grp.tris], self._row[grp.tris] = g, np.arange(len(grp.tris))

    @property
    def dimension(self):
        return self.mds.dimension

    def spline(self, dofs):
        return SplineFunction(self, dofs)

    def extract_dofs(self, stored):
        """Apply every determining functional to coefficients in the stored
        form (dual extraction), whose row t holds triangle t's stored
        coefficients, zero-padded; stored need not be smooth."""
        stored = np.asarray(stored, dtype=float)
        if stored.shape != (self.mesh.n_triangles, bb.n_coeffs(6)):
            raise ValueError(f"stored form has shape {stored.shape}, "
                             f"expected (n_triangles, 28) = ({self.mesh.n_triangles}, 28)")
        return stored[self.mds.tri, self.mds.pos]

    def locate(self, pts):
        """Triangle of each point (n, 2) (or of one point (2,)), -1 for
        points outside.

        A point lies in the first triangle in mesh order that misses it by
        at most 1e-12, else in the first that misses it least if by less
        than 1e-9.  A straight triangle misses by its most negative
        barycentric coordinate, or by inf outside its bounding box widened
        by 1e-12 of its span; a pie by the most negative of its chord
        triangle's coordinates at the boundary vertices and its conic
        (normalized to 1 at the interior vertex).  Points and triangles
        are taken _BLOCK at a time."""
        mesh = self.mesh
        pts = _points(pts)
        coords = mesh.vertices[mesh.tri_verts]
        span = np.abs(coords).max(axis=(1, 2)) + 1.0
        lo = coords.min(axis=1) - 1e-12 * span[:, None]
        hi = coords.max(axis=1) + 1e-12 * span[:, None]
        straight = mesh.tri_kind != PIE
        found = np.full(len(pts), -1)
        for p in range(0, len(pts), _BLOCK):
            x = pts[p:p + _BLOCK]
            best = np.full(len(x), np.inf)
            for start in range(0, mesh.n_triangles, _BLOCK):
                tris = np.arange(start, min(start + _BLOCK, mesh.n_triangles))
                b = bb.barycentric_many(coords[tris], np.broadcast_to(x, (len(tris),) + x.shape))
                miss = np.maximum(0.0, -np.minimum(np.minimum(b[..., 0], b[..., 1]), b[..., 2]))
                box = ((x[:, 0] < lo[tris, 0, None]) | (x[:, 0] > hi[tris, 0, None])
                       | (x[:, 1] < lo[tris, 1, None]) | (x[:, 1] > hi[tris, 1, None]))
                miss[box & straight[tris, None]] = np.inf
                j = np.flatnonzero(~straight[tris])
                q = (eval_conic(mesh.domain.coeffs[mesh.tri_arc[tris[j]]], x[None])
                     / self.pie_scale[tris[j], None])
                miss[j] = np.maximum(np.maximum(-b[j, :, 1], -b[j, :, 2]), np.maximum(-q, 0.0))
                # the first triangle that holds the point, else the first closest
                miss[miss <= 1e-12] = 0.0
                first = miss.argmin(axis=0)
                m = miss[first, np.arange(len(x))]
                closer = m < best
                best[closer] = m[closer]
                found[p:p + _BLOCK][closer] = tris[first[closer]]
            found[p:p + _BLOCK][best >= 1e-9] = -1
        return found


@dataclass(frozen=True, eq=False)
class MapGroup:
    """The triangles of one kind and local dof count, in mesh order, and
    their maps stacked along the leading axis: tris (g,), dofs cols (g, k),
    Z (g, nc, k) from them to the BB coefficients of the degree-`degree`
    pieces (the product form on pies), and stored to the coefficients the
    fill stores: the degree-4 factor (g, 15, k) on pies, Z elsewhere."""

    kind: str
    degree: int
    tris: np.ndarray
    cols: np.ndarray
    Z: np.ndarray
    stored: np.ndarray


def _map_groups(mesh, prop, Z):
    """Split the map Z of _Propagator.run into MapGroups, writing nothing
    to Z: per triangle the dofs are the sorted columns its rows touch,
    from one sort of the entries by (triangle, column); entries below
    1e-15 of the triangle's largest (or of 1) are dropped, and the maps
    are scattered dense, every group's into one buffer."""
    coef, dof, val = Z
    n_tri, db = mesh.n_triangles, _bits(prop.mds.dimension)
    tri = np.repeat(np.arange(n_tri), np.diff(prop.offset))         # of each coefficient
    order, key = _sorted(tri[coef] << db | dof, _bits(n_tri) + db)
    coef, val = coef[order], val[order]
    at = _starts(key)                                   # first entry of each (triangle, column)
    t, cols_all = key[at] >> db, key[at] & ((1 << db) - 1)
    del order
    tri = np.right_shift(key, db, out=key)              # sorted, in place of the keys
    k = np.bincount(t, minlength=n_tri)
    mag, runs = np.abs(val), _starts(t)
    scale = np.ones(n_tri)
    scale[t[runs]] = np.maximum(np.maximum.reduceat(mag, at[runs]), 1.0)
    small = np.flatnonzero(mag < 1e-15 * scale.max())
    val[small[mag[small] < 1e-15 * scale[tri[small]]]] = 0.0
    # groups in the order of their first triangle, each a block of the buffer
    _, first, member = np.unique(prop.degree * (k.max(initial=0) + 1) + k,
                                 return_index=True, return_inverse=True)
    member = np.argsort(np.argsort(first))[member]
    by_group = np.argsort(member, kind="stable")
    nc = (prop.degree + 1) * (prop.degree + 2) // 2
    size, start = nc * k, np.cumsum(k) - k
    base = np.empty(n_tri, dtype=np.int64)
    base[by_group] = np.cumsum(size[by_group]) - size[by_group]
    # entry (row, column) of triangle t at base[t] + row k[t] + the column's place
    dest = np.repeat(base[t] + np.arange(len(at)) - start[t], np.diff(at, append=len(val)))
    dest += (coef - prop.offset[tri]) * k[tri]
    buf = np.zeros(size.sum())
    buf[dest] = val
    groups = []
    for tris in np.split(by_group, np.cumsum(np.bincount(member))[:-1]):
        kind, kt, nt = str(mesh.tri_kind[tris[0]]), int(k[tris[0]]), int(nc[tris[0]])
        M = buf[base[tris[0]]:base[tris[0]] + len(tris) * nt * kt].reshape(len(tris), nt, kt)
        cols = cols_all[start[tris, None] + np.arange(kt)]
        piece = prop.pie_P[prop.pie_row[tris]] @ M if kind == PIE else M
        groups.append(MapGroup(kind, 5 if kind == ORDINARY else 6, tris, cols, piece, M))
    return groups


def build_space(mesh):
    """Build the spline space (determining set + propagation maps)."""
    return SplineSpace(mesh)


class SplineFunction:
    """A spline: the space and a dof vector.  Its pieces are formed from
    the space's maps on demand, per stack of triangles of a map group."""

    def __init__(self, space, dofs):
        dofs = np.asarray(dofs, dtype=float)
        if dofs.shape != (space.dimension,):
            raise ValueError(
                f"dof vector has shape {dofs.shape}, expected ({space.dimension},)"
            )
        self.space = space
        self.dofs = dofs

    def pieces(self, Z, cols):
        """(g, nc, 1) BB coefficients of the pieces on a stack of triangles
        with dofs cols (g, k) and maps Z (g, nc, k) (a MapGroup's or a
        QuadratureChunk's)."""
        return Z @ self.dofs[cols][:, :, None]

    def evaluate(self, pts, tris=None, order=2):
        """(values, gradients, Hessians) up to `order` at points (n, 2), each
        on its triangle in tris (space.locate when not given; a point need
        not lie in its triangle): one bernstein.frame_derivatives call per
        map group, with each point's own piece, Bernstein matrices and
        frame.  ValueError for a point outside the triangulation (tris -1),
        and unless pts has shape (n, 2) or (2,), order is 0, 1 or 2 and
        tris holds one integer in -1..n_triangles - 1 per point."""
        space, mesh = self.space, self.space.mesh
        pts = _points(pts)
        if not (isinstance(order, (int, np.integer)) and 0 <= order <= 2):
            raise ValueError(f"derivative order {order!r} is not 0, 1 or 2")
        tris = space.locate(pts) if tris is None else np.asarray(tris)
        if tris.dtype.kind not in "iu":
            raise ValueError(f"triangle indices of type {tris.dtype}, expected integers")
        if tris.shape != (len(pts),):
            raise ValueError(f"triangle indices of shape {tris.shape} for {len(pts)} points")
        for i in np.flatnonzero((tris < -1) | (tris >= mesh.n_triangles))[:1]:
            raise ValueError(f"triangle index {tris[i]} of point {i} is outside "
                             f"-1..{mesh.n_triangles - 1}")
        if (tris < 0).any():
            raise ValueError(f"point {tuple(pts[np.argmin(tris)].tolist())} is outside "
                             "the triangulation")
        out = np.empty((len(pts), (1, 3, 6)[order]))
        group = space._group[tris]
        for g in np.unique(group).tolist():
            grp, at = space.groups[g], np.flatnonzero(group == g)
            rows, inv = np.unique(space._row[tris[at]], return_inverse=True)
            coords = mesh.vertices[mesh.tri_verts[tris[at]]]
            B = bb.design_matrices(grp.degree, bb.barycentric_many(coords, pts[at, None]), order)
            out[at] = np.column_stack([f[:, 0, 0] for f in bb.frame_derivatives(
                grp.degree, self.pieces(grp.Z[rows], grp.cols[rows])[inv], B,
                bb.frames(coords), range(order + 1))])
        return (out[:, 0], out[:, 1:3] if order >= 1 else None,
                out[:, [3, 4, 4, 5]].reshape(-1, 2, 2) if order >= 2 else None)


# ---------------------------------------------------------------------------
# spline file IO

def _finite_dofs(dofs):
    """dofs (a float array); SpaceError naming the first that is not finite."""
    for i in np.flatnonzero(~np.isfinite(dofs))[:1]:
        raise SpaceError(f"spline file: dof {i} is {dofs[i]}, not a finite number")
    return dofs


def save_spline(spline, path):
    data = {
        "mesh": mesh_to_dict(spline.space.mesh),
        "dofs": [float(v) for v in _finite_dofs(spline.dofs)],
    }
    with open(path, "w") as f:
        json.dump(data, f)


def load_spline(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise SpaceError('spline file: expected a JSON object with "mesh" and "dofs", got '
                         f"{type(data).__name__}")
    for key, expected in (("mesh", "a mesh object"), ("dofs", "a list of numbers")):
        if key not in data:
            raise SpaceError(f'spline file has no "{key}": expected {expected}')
    dofs = data["dofs"]
    if not is_number_list(dofs):
        raise SpaceError('spline file: "dofs" is not a list of numbers')
    dofs = _finite_dofs(np.asarray(dofs, dtype=float))
    return build_space(mesh_from_dict(data["mesh"])).spline(dofs)
