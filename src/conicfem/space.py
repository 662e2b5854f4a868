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
equations: each step sets BB coefficients to fixed weighted sums of dofs
or of coefficients set before it, and a repeated definition of a
coefficient is checked against the first.  Solving them gives, per
triangle, the linear map from its local dofs to its BB coefficients.
The maps are stored once, stacked per group of triangles of one kind and
local dof count (MapGroup); a spline is its dof vector, and its pieces
are these maps applied to it.  Point queries locate all points at once
(SplineSpace.locate) and evaluate each piece at its points through
design matrices (SplineFunction.evaluate).  Spaces
and splines are immutable after construction and safe to share across
threads; propagation of different dof vectors may run concurrently.
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from . import bernstein as bb
from .geometry import eval_conic, grad_conic, normalized_pie_conic
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
    """Spline-space construction failed."""


class PropagationError(SpaceError):
    """Inconsistent coefficient fill (should not happen on valid meshes)."""


@dataclass(frozen=True)
class DofDescriptor:
    """One coefficient-extraction functional of the determining set.

    tri is the designated triangle whose representation carries the
    coefficient; local is the multi-index inside that representation
    (the quartic factor for pie/tangent-corner dofs).  The triangle is
    also the functional's supporting set.
    """

    category: str
    owner: tuple
    tri: int
    local: tuple


class MinimalDeterminingSet:
    def __init__(self, mesh, dofs, counts, vertex_block, edge_pos, corner_pos,
                 buffer_block):
        self.mesh = mesh
        self.dofs = dofs
        self.counts = counts
        self.vertex_block = vertex_block
        self.edge_pos = edge_pos
        self.corner_pos = corner_pos
        self.buffer_block = buffer_block

    @property
    def dimension(self):
        return len(self.dofs)


def vertex_slot(rec, v):
    """Slot (1, 2 or 3) of vertex v in the triangle record rec."""
    return rec.verts.index(v) + 1


def build_mds(mesh):
    """The minimal determining set of the space over a validated mesh.

    Designated triangles are chosen by lowest triangle index.  The
    dimension is 6|V_I| + |E_I0| + |V_B1| + 5|pies| + 2|buffers|.
    """
    dofs = []
    vertex_block = {}
    edge_pos = {}
    corner_pos = {}
    buffer_block = {}

    for v in mesh.interior_vertices():
        cands = [t for t in mesh.vertex_triangles(v)
                 if mesh.triangles[t].kind == ORDINARY]
        if not cands:
            raise SpaceError(f"interior vertex {v} touches no ordinary triangle")
        t = min(cands)
        slot = vertex_slot(mesh.triangles[t], v)
        vertex_block[v] = len(dofs)
        for g in bb.vertex_ring(5, slot):
            dofs.append(DofDescriptor(VERTEX_JET, ("v", v), t, g))

    for e in mesh.plain_interior_edges():
        rec = mesh.edges[e]
        cands = [t for t in rec.tris if mesh.triangles[t].kind == ORDINARY]
        if not cands:
            raise SpaceError(f"edge {rec.verts} has no ordinary side")
        t = min(cands)
        slots = tuple(vertex_slot(mesh.triangles[t], v) for v in rec.verts)
        edge_pos[e] = len(dofs)
        g = bb.edge_row_indices(5, slots, 1)[2]   # middle of the first row
        dofs.append(DofDescriptor(EDGE_INTERIOR, ("e", e), t, g))

    for v in mesh.boundary_vertices():
        if not mesh.vertex_tangent[v]:
            continue
        pies = sorted(t for t in mesh.vertex_triangles(v)
                      if mesh.triangles[t].kind == PIE)
        t = pies[0]
        g = bb.vertex_ring(4, vertex_slot(mesh.triangles[t], v))[0]
        corner_pos[v] = len(dofs)
        dofs.append(DofDescriptor(TANGENT_CORNER, ("v", v), t, g))

    pies = mesh.triangles_of_kind(PIE)
    for t in pies:
        for g in _PIE_LOCALS:
            dofs.append(DofDescriptor(PIE_FACTOR, ("t", t), t, g))

    for t in mesh.triangles_of_kind(BUFFER):
        buffer_block[t] = len(dofs)
        for g in _BUFFER_LOCALS:
            dofs.append(DofDescriptor(BUFFER_INTERIOR, ("t", t), t, g))

    counts = {
        VERTEX_JET: len(vertex_block),
        EDGE_INTERIOR: len(edge_pos),
        TANGENT_CORNER: len(corner_pos),
        PIE_FACTOR: len(pies),
        BUFFER_INTERIOR: len(buffer_block),
    }
    return MinimalDeterminingSet(
        mesh, dofs, counts, vertex_block, edge_pos, corner_pos, buffer_block,
    )


# ---------------------------------------------------------------------------
# jet <-> vertex ring maps

def jet_to_ring_matrix(tri, slot, d):
    """6x6 map from a Cartesian 2-jet (v, gx, gy, hxx, hxy, hyy) at a
    vertex to the six ring coefficients in canonical ring order."""
    tri = np.asarray(tri, dtype=float)
    corner = tri[slot - 1]
    sa, sb = bb.ring_edge_slots(slot)
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
    K = jet_to_ring_matrix(unit, 1, 5) @ ring_to_jet_matrix(unit, 1, 6)
    im5, im6 = bb.index_map(5), bb.index_map(6)
    for slot in (1, 2, 3):
        rows = [im5[g] for g in bb.vertex_ring(5, slot)]
        R[rows] = 0.0
        R[np.ix_(rows, [im6[g] for g in bb.vertex_ring(6, slot)])] = K
    return R


# ---------------------------------------------------------------------------
# the corner system of the pie factor

def factor_ring_matrix(q110, q101, q011):
    """Lower-triangular map from the factor's vertex ring to the product's.

    Ring order is canonical (corner, +A, +B, ++A, ++B, mixed) at the pie
    interior vertex; the conic is normalized to 1 there and vanishes at the
    other two vertices.  Derived from the Bernstein product identity.
    """
    return np.array([
        [1.0, 0, 0, 0, 0, 0],
        [q110 / 3.0, 2 / 3.0, 0, 0, 0, 0],
        [q101 / 3.0, 0, 2 / 3.0, 0, 0, 0],
        [0, 8 * q110 / 15.0, 0, 2 / 5.0, 0, 0],
        [0, 0, 8 * q101 / 15.0, 0, 2 / 5.0, 0],
        [q011 / 15.0, 4 * q101 / 15.0, 4 * q110 / 15.0, 0, 0, 2 / 5.0],
    ])


def solve_factor_ring(a_ring, q110, q101, q011):
    """Recover the quartic factor's vertex ring from the product's.

    a_ring holds the degree-6 ring coefficients of (factor * conic) at the
    pie interior vertex, canonical ring order (or a map to them, one column
    per input); returns the factor's degree-4 ring, same order.  The system
    is unconditionally lower-triangular with positive diagonal.
    """
    return np.linalg.solve(factor_ring_matrix(q110, q101, q011),
                           np.asarray(a_ring, dtype=float))


# ---------------------------------------------------------------------------
# the fill as sparse linear equations

def _row_absmax(M):
    return abs(M).max(axis=1).toarray().ravel()


def _concat(entries):
    return tuple(np.concatenate(x) for x in zip(*entries))


class _Propagator:
    """Runs the constructive fill over a mesh as sparse linear equations.

    Every stored BB coefficient (patch coefficients on ordinary and buffer
    triangles, factor coefficients on pies) has a global index.  Each fill
    step sets target coefficients to weighted sums of dofs or of
    coefficients set by earlier steps.  The first equation of a coefficient
    defines it, as a row of W (coefficient sources) or of S (dof sources);
    every later equation for it is a check row.  A step reads only
    coefficients set before it, so W is strictly triangular and sweeps
    Z <- S + W Z reach the map Z from dofs to coefficients exactly, one
    sweep per level of the fill.
    """

    def __init__(self, mesh, mds):
        self.mesh = mesh
        self.mds = mds
        sizes = [bb.n_coeffs(_STORED_DEGREE[rec.kind]) for rec in mesh.triangles]
        self.offset = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.targets = []                      # per step, in fill order
        self.n_eq = 0
        self.entries = {False: [], True: []}   # keyed by "sources are dofs"
        self.pie_q = {}
        self.pie_scale = {}
        self.pie_P = {}
        for t in mesh.triangles_of_kind(PIE):
            tri = mesh.tri_coords(t)
            conic = mesh.pie_conic(t)
            self.pie_q[t] = normalized_pie_conic(conic, tri)
            self.pie_scale[t] = float(eval_conic(conic, tri[0]))
            self.pie_P[t] = bb.product_matrix(4, 2, self.pie_q[t])

    # -- helpers ----------------------------------------------------------

    def _coefs(self, t):
        return np.arange(self.offset[t], self.offset[t + 1])

    def _emit(self, t, gs, weights, src, from_dofs=False):
        """Equations coef(t, gs[i]) = sum_j weights[i, j] * source src[j].

        Sources are dof numbers when from_dofs is set, else global
        coefficient indices, which earlier steps must have set.
        """
        im = bb.index_map(_STORED_DEGREE[self.mesh.triangles[t].kind])
        weights = np.asarray(weights, dtype=float).reshape(len(gs), -1)
        i, j = np.nonzero(weights)
        src = np.asarray(src, dtype=np.int64)
        self.entries[from_dofs].append((self.n_eq + i, src[j], weights[i, j]))
        self.targets.append(self.offset[t] + np.array([im[g] for g in gs], dtype=np.int64))
        self.n_eq += len(gs)

    def _where(self, k):
        """(triangle, local position) of a global coefficient index."""
        t = int(np.searchsorted(self.offset, k, side="right")) - 1
        return t, int(k - self.offset[t])

    def _qparts(self, t):
        q = self.pie_q[t]
        im = bb.index_map(2)
        return q[im[(1, 1, 0)]], q[im[(1, 0, 1)]], q[im[(0, 1, 1)]]

    def _across(self, src, dst, shared):
        """Slots of the shared vertices in src and dst, and the barycentric
        coordinates of dst's off-edge vertex w.r.t. src (the C1 weights)."""
        mesh = self.mesh
        src_slots = tuple(vertex_slot(mesh.triangles[src], v) for v in shared)
        dst_slots = tuple(vertex_slot(mesh.triangles[dst], v) for v in shared)
        w = mesh.vertices[mesh.triangles[dst].verts[5 - sum(dst_slots)]]
        return src_slots, dst_slots, bb.barycentric(mesh.tri_coords(src), w)

    # -- pipeline ----------------------------------------------------------

    def run(self):
        """Run the fill and return the coefficient map Z (sparse, global
        coefficients x dofs); sets self.defect from the check rows."""
        self._seed_dofs()
        self._fill_rings()
        self._fill_ordinary()
        self._fill_buffer_from_ordinary()
        self._fill_factor_corners()
        self._fill_chords_and_buffer_edges()
        self._finish_pies_and_buffers()
        return self._solve()

    def _solve(self):
        n = self.offset[-1]
        target = np.concatenate(self.targets)
        first = np.full(n, self.n_eq)      # first equation of each coefficient
        defined, pos = np.unique(target, return_index=True)
        first[defined] = pos
        eq, src, w = _concat(self.entries[False])
        for e in eq[first[src] >= eq][:1]:
            t, _ = self._where(target[e])
            raise PropagationError(f"fill of triangle {t} reads an unset coefficient")
        # definitions are rows 0..n-1 (by target), check rows follow
        check = first[target] != np.arange(self.n_eq)
        row = np.where(check, n + np.cumsum(check) - 1, target)
        A = sparse.csr_matrix((w, (row[eq], src)), shape=(n + check.sum(), n))
        eq, dof, w = _concat(self.entries[True])
        B = sparse.csr_matrix((w, (row[eq], dof)),
                              shape=(n + check.sum(), self.mds.dimension))
        W, S = A[:n], B[:n]
        # exact after one sweep per fill level; the next sweep changes nothing
        Z, prev = S, None
        while prev is None or (Z != prev).nnz:
            Z, prev = S + W @ Z, Z
        again = B[n:] + A[n:] @ Z
        first_def = Z[target[check]]
        scale = np.maximum(np.maximum(_row_absmax(again), _row_absmax(first_def)), 1.0)
        gaps = _row_absmax(again - first_def) / scale
        self.defect = float(gaps.max(initial=0.0))
        for c in np.flatnonzero(gaps > 1e-8)[:1]:
            t, i = self._where(target[check][c])
            g = bb.multi_indices(_STORED_DEGREE[self.mesh.triangles[t].kind])[i]
            raise PropagationError(
                f"inconsistent fill at triangle {t}, index {g} (gap {gaps[c]:.2e})"
            )
        for k in np.flatnonzero(first == self.n_eq)[:1]:
            t, i = self._where(k)
            raise PropagationError(f"coefficient {i} of triangle {t} unset")
        return Z

    def _seed_dofs(self):
        for j, dof in enumerate(self.mds.dofs):
            self._emit(dof.tri, [dof.local], [[1.0]], [j], from_dofs=True)

    def _fill_rings(self):
        """The ring of every triangle at each interior vertex, from the
        vertex's 2-jet (the product's ring, then the factor's, on pies)."""
        mesh, mds = self.mesh, self.mds
        jets = {}   # interior vertex -> (2-jet from its six dofs, their numbers)
        for v, start in mds.vertex_block.items():
            t = mds.dofs[start].tri
            slot = vertex_slot(mesh.triangles[t], v)
            jets[v] = (ring_to_jet_matrix(mesh.tri_coords(t), slot, 5),
                       np.arange(start, start + 6))
        for t, rec in enumerate(mesh.triangles):
            for slot, v in enumerate(rec.verts, start=1):
                if v not in jets:
                    continue
                R, cols = jets[v]
                d = 5 if rec.kind == ORDINARY else 6
                weights = jet_to_ring_matrix(mesh.tri_coords(t), slot, d) @ R
                if rec.kind == PIE:
                    weights = solve_factor_ring(weights, *self._qparts(t))
                self._emit(t, bb.vertex_ring(_STORED_DEGREE[rec.kind], slot),
                           weights, cols, from_dofs=True)

    def _fill_ordinary(self):
        """Edge-interior coefficients via the smoothness rule."""
        mesh = self.mesh
        for e in mesh.plain_interior_edges():
            rec = mesh.edges[e]
            tris = [t for t in rec.tris if mesh.triangles[t].kind == ORDINARY]
            if len(tris) < 2:
                continue
            src = self.mds.dofs[self.mds.edge_pos[e]].tri
            dst = tris[0] if tris[1] == src else tris[1]
            self._fill_edge_middle(src, dst, rec.verts)

    def _fill_edge_middle(self, src, dst, shared):
        """Fill the middle first-interior-row coefficient of dst across an edge."""
        src_slots, dst_slots, b_off = self._across(src, dst, shared)
        self._emit(dst, [bb.edge_row_indices(5, dst_slots, 1)[2]],
                   bb.c1_matrix(5, src_slots, b_off)[2], self._coefs(src))

    def _fill_buffer_from_ordinary(self):
        mesh = self.mesh
        raise_m = bb.degree_raise_matrix(5, 6)
        im6 = bb.index_map(6)
        for t in mesh.triangles_of_kind(BUFFER):
            rec = mesh.triangles[t]
            shared = (rec.verts[1], rec.verts[2])
            e = mesh.edge_id(*shared)
            src = [x for x in mesh.edges[e].tris if x != t][0]
            if mesh.triangles[src].kind != ORDINARY:
                raise SpaceError(f"buffer {t} inner edge not shared with ordinary")
            src_slots, dst_slots, b_off = self._across(src, t, shared)
            c0 = [im6[g] for g in bb.edge_row_indices(6, src_slots, 0)]
            self._emit(t, bb.edge_row_indices(6, dst_slots, 0), raise_m[c0],
                       self._coefs(src))
            self._emit(t, bb.edge_row_indices(6, dst_slots, 1),
                       bb.c1_matrix(6, src_slots, b_off) @ raise_m, self._coefs(src))

    def _fill_factor_corners(self):
        mesh, mds = self.mesh, self.mds
        for v in mesh.boundary_vertices():
            pies = sorted(t for t in mesh.vertex_triangles(v)
                          if mesh.triangles[t].kind == PIE)
            locs = [bb.vertex_ring(4, vertex_slot(mesh.triangles[t], v))[0]
                    for t in pies]
            if not mesh.vertex_tangent[v]:
                for t, g in zip(pies, locs):
                    self._emit(t, [g], np.zeros((1, 0)), [])
                continue
            pos = mds.corner_pos[v]
            # value on the designated pie is the dof; the partner is scaled
            # by the ratio of the normalized conic gradients
            g1, g2 = (grad_conic(mesh.pie_conic(t), mesh.vertices[v]) / self.pie_scale[t]
                      for t in pies)
            i = int(np.argmax(np.abs(g2)))
            if abs(g2[i]) == 0.0:
                raise SpaceError(f"vanishing conic gradient at boundary vertex {v}")
            alpha = g1[i] / g2[i]
            self._emit(pies[0], [locs[0]], [[1.0]], [pos], from_dofs=True)
            self._emit(pies[1], [locs[1]], [[alpha]], [pos], from_dofs=True)

    def _pie_edges(self):
        """(pie, buffer, edge verts (v1, other), chord local index, conic
        edge coefficient)."""
        mesh = self.mesh
        for t in mesh.triangles_of_kind(PIE):
            v1, v2, v3 = mesh.triangles[t].verts
            q110, q101, _ = self._qparts(t)
            for other, chord_g, qe in ((v3, (0, 1, 3), q101), (v2, (0, 3, 1), q110)):
                e = mesh.edge_id(v1, other)
                buf = [x for x in mesh.edges[e].tris if x != t][0]
                yield t, buf, (v1, other), chord_g, qe

    def _fill_chords_and_buffer_edges(self):
        im4, im6 = bb.index_map(4), bb.index_map(6)
        for t, buf, shared, chord_g, q_edge_mid in self._pie_edges():
            P = self.pie_P[t]
            # continuity row of the buffer: the product's edge row
            src_slots, dst_slots, b_off = self._across(buf, t, shared)
            c0 = [im6[g] for g in bb.edge_row_indices(6, dst_slots, 0)]
            self._emit(buf, bb.edge_row_indices(6, src_slots, 0), P[c0],
                       self._coefs(t))
            # C1 from the buffer fixes the product's first-row entry at the
            # boundary-vertex end; its product-matrix row gives the chord
            if abs(q_edge_mid) < 1e-12:
                raise SpaceError(
                    f"pie {t}: conic edge coefficient vanishes (gradient condition)"
                )
            row = P[im6[bb.edge_row_indices(6, dst_slots, 1)[4]]]
            chord = im4[chord_g]
            weights = np.concatenate([bb.c1_matrix(6, src_slots, b_off)[4], -row])
            weights[bb.n_coeffs(6) + chord] = 0.0   # the unknown itself
            self._emit(t, [chord_g], weights / row[chord],
                       np.concatenate([self._coefs(buf), self._coefs(t)]))

    def _finish_pies_and_buffers(self):
        for t, buf, shared, _, _ in self._pie_edges():
            src_slots, dst_slots, b_off = self._across(t, buf, shared)
            self._emit(buf, bb.edge_row_indices(6, dst_slots, 1),
                       bb.c1_matrix(6, src_slots, b_off) @ self.pie_P[t], self._coefs(t))


# ---------------------------------------------------------------------------
# the assembled space

class SplineSpace:
    """Mesh + determining set + dof-to-coefficient maps, stored once per
    group of triangles (see MapGroup) in `groups`.

    The stored form of a spline is the flat vector of every triangle's
    stored coefficients (the quartic factor on pies) in triangle order,
    those of triangle t at coef_offset[t]:coef_offset[t + 1]; determining
    functional j reads its entry dof_coef[j]."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.mds = build_mds(mesh)
        prop = _Propagator(mesh, self.mds)
        self.groups = _map_groups(mesh, prop, prop.run())
        self.fill_defect = prop.defect
        self.coef_offset = prop.offset
        self.dof_coef = np.array(
            [prop.offset[dof.tri]
             + bb.index_map(_STORED_DEGREE[mesh.triangles[dof.tri].kind])[dof.local]
             for dof in self.mds.dofs], dtype=np.int64)
        self.pie_q, self.pie_scale = prop.pie_q, prop.pie_scale
        self._at = [None] * mesh.n_triangles     # triangle -> (group, row)
        for grp in self.groups:
            for i, t in enumerate(grp.tris):
                self._at[t] = (grp, i)
        self.tri_cols = [grp.cols[i] for grp, i in self._at]

    @property
    def dimension(self):
        return self.mds.dimension

    def tri_degree(self, t):
        return 5 if self.mesh.triangles[t].kind == ORDINARY else 6

    def local_map(self, t, stored=False):
        """(tri_cols[t], map from them to the BB coefficients of t's piece:
        the degree-6 product form on pies), or with stored set, to the
        coefficients the fill stores (the degree-4 factor on pies)."""
        grp, i = self._at[t]
        return grp.cols[i], (grp.stored if stored else grp.Z)[i]

    def spline(self, dofs):
        return SplineFunction(self, dofs)

    def zero(self):
        return self.spline(np.zeros(self.dimension))

    def extract_dofs(self, stored):
        """Apply every determining functional to coefficients in the stored
        form (dual extraction); stored need not be smooth."""
        stored = np.asarray(stored, dtype=float)
        if stored.shape != (self.coef_offset[-1],):
            raise ValueError(f"stored form has shape {stored.shape}, "
                             f"expected ({self.coef_offset[-1]},)")
        return stored[self.dof_coef]

    def locate(self, pts):
        """Triangle of each point (n, 2), -1 for points outside.

        A point lies in the first triangle in mesh order that misses it by
        at most 1e-12, else in the first that misses it least if by less
        than 1e-9.  A straight triangle misses by its most negative
        barycentric coordinate, or by inf outside its bounding box widened
        by 1e-12 of its span; a pie by the most negative of its chord
        triangle's coordinates at the boundary vertices and its conic
        (normalized to 1 at the interior vertex).  Points and triangles
        are taken _BLOCK at a time."""
        mesh = self.mesh
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        coords = mesh.vertices[[rec.verts for rec in mesh.triangles]]
        span = np.abs(coords).max(axis=(1, 2)) + 1.0
        lo = coords.min(axis=1) - 1e-12 * span[:, None]
        hi = coords.max(axis=1) + 1e-12 * span[:, None]
        straight = np.array([rec.kind != PIE for rec in mesh.triangles])
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
                for j in np.flatnonzero(~straight[tris]):
                    t = int(tris[j])
                    q = eval_conic(mesh.pie_conic(t), x) / self.pie_scale[t]
                    miss[j] = np.maximum(np.maximum(-b[j, :, 1], -b[j, :, 2]),
                                         np.maximum(-q, 0.0))
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
    """Split the CSR map Z (stored coefficients x dofs) into MapGroups.

    Per triangle the dofs are the sorted columns its rows touch, and
    entries below 1e-15 of the triangle's largest (or of 1) are dropped."""
    dim = Z.shape[1]
    row = np.repeat(np.arange(Z.shape[0]), np.diff(Z.indptr))    # per entry
    tri = np.searchsorted(prop.offset, row, side="right") - 1
    keys, pos = np.unique(tri * dim + Z.indices, return_inverse=True)
    k = np.bincount(keys // dim, minlength=mesh.n_triangles)
    pos -= np.concatenate([[0], np.cumsum(k)])[tri]     # column in its triangle
    members = {}
    for t, rec in enumerate(mesh.triangles):
        members.setdefault((rec.kind, int(k[t])), []).append(t)
    groups = []
    for (kind, kt), tris in members.items():
        tris, nz = np.array(tris, dtype=np.int64), np.isin(tri, tris)
        M = np.zeros((len(tris), bb.n_coeffs(_STORED_DEGREE[kind]), kt))
        M[np.searchsorted(tris, tri[nz]), (row - prop.offset[tri])[nz], pos[nz]] = Z.data[nz]
        scale = np.maximum(np.abs(M).max(axis=(1, 2), initial=0.0), 1.0)
        M[np.abs(M) < 1e-15 * scale[:, None, None]] = 0.0
        cols = keys[np.isin(keys // dim, tris)].reshape(len(tris), kt) % dim
        piece = np.array([prop.pie_P[t] for t in tris]) @ M if kind == PIE else M
        groups.append(MapGroup(kind, 5 if kind == ORDINARY else 6, tris, cols, piece, M))
    return groups


def build_space(mesh):
    """Build the spline space (determining set + propagation maps)."""
    return SplineSpace(mesh)


class SplineFunction:
    """A spline: the space and a dof vector.  Its pieces are formed from
    the space's maps on demand, per triangle or per stack of triangles."""

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

    def patch(self, t):
        """BB coefficients of the piece on triangle t (degree-6 product form
        over the chord triangle for pies)."""
        cols, Z = self.space.local_map(t)
        return Z @ self.dofs[cols]

    def factor(self, t):
        """Degree-4 factor coefficients of a pie triangle (the coefficients
        the fill stores; the piece itself on other triangles)."""
        cols, F = self.space.local_map(t, stored=True)
        return F @ self.dofs[cols]

    def eval_batch(self, t, pts, order=2):
        """Values, gradients and Hessians of the piece on triangle t at many
        points (vectorized; points need not lie inside the triangle)."""
        d = self.space.tri_degree(t)
        tri = self.space.mesh.tri_coords(t)
        bary = bb.barycentric_many(tri, pts)
        return bb.apply_design(*bb.design_matrices(d, tri, bary, order=order),
                               self.patch(t))

    def evaluate(self, pts, tris=None, order=2):
        """(values, gradients, Hessians) at points (n, 2) as eval_batch gives
        them, each point on its triangle in tris (space.locate when not
        given).  Raises ValueError for a point outside the triangulation."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        tris = self.space.locate(pts) if tris is None else np.asarray(tris)
        if (tris < 0).any():
            raise ValueError(f"point {tuple(pts[np.argmin(tris)])} is outside "
                             "the triangulation")
        out = [np.empty(len(pts)), np.empty((len(pts), 2)),
               np.empty((len(pts), 2, 2))][:order + 1]
        for t in np.unique(tris):
            rows = np.flatnonzero(tris == t)
            for o, r in zip(out, self.eval_batch(t, pts[rows], order)):
                o[rows] = r
        return tuple(out) + (None,) * (2 - order)


def basis_support(space, lam, tol=1e-13):
    """Triangles on which the dual basis function of dof lam is nonzero."""
    out = set()
    for grp in space.groups:
        for i, k in zip(*np.nonzero(grp.cols == lam)):
            if np.abs(grp.stored[i, :, k]).max() > tol:
                out.add(int(grp.tris[i]))
    return out


# ---------------------------------------------------------------------------
# spline file IO

def save_spline(spline, path, include_patches=False):
    data = {
        "mesh": mesh_to_dict(spline.space.mesh),
        "dofs": [float(v) for v in spline.dofs],
    }
    if include_patches:
        data["patches"] = {
            str(t): [float(v) for v in spline.patch(t)]
            for t in range(spline.space.mesh.n_triangles)
        }
    with open(path, "w") as f:
        json.dump(data, f)


def load_spline(path):
    with open(path) as f:
        data = json.load(f)
    mesh = mesh_from_dict(data["mesh"])
    space = build_space(mesh)
    return space.spline(np.asarray(data["dofs"], dtype=float))
