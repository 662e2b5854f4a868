"""Curved triangulations: classification, validation and refinement.

Triangles are classified as pie-shaped (one curved boundary edge),
buffer (sharing an edge with a pie triangle) or ordinary.  Validation
enforces the structural conditions the spline construction relies on and
reports violations by condition letter:

  (a) every arc corner is a mesh vertex
  (b) no interior edge has both endpoints on the boundary
  (c) no two pie triangles share an edge
  (d) every pie triangle is star-shaped w.r.t. its interior vertex
  (e) the boundary conic is positive on the pie triangle off the arc
  (f) all boundary edges are curved
  (g) no two buffer triangles share an edge

Triangulations are immutable after validation; refinement returns a new
value, so read-sharing across threads needs no coordination.
"""

import json
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GeometryError,
    arc_point_on_ray,
    conics_tangent_at,
    domain_from_dict,
    domain_to_dict,
    eval_conic,
)

ORDINARY = "ordinary"
BUFFER = "buffer"
PIE = "pie"


class MeshError(ValueError):
    """Triangulation violates a structural condition."""

    def __init__(self, condition, message):
        self.condition = condition
        super().__init__(f"condition ({condition}): {message}")


@dataclass(frozen=True)
class TriangleRecord:
    """One triangle: vertex indices, class, and the arc index for pies.

    Pie triangles store the interior vertex in slot 1 and the curved edge
    as (slot 2, slot 3); buffer triangles store their boundary vertex in
    slot 1.  All triangles are counter-clockwise.
    """

    verts: tuple
    kind: str
    arc: int = None


@dataclass(frozen=True)
class EdgeRecord:
    verts: tuple          # sorted vertex pair
    tris: tuple           # one or two incident triangle indices
    arc: int = None       # arc index for boundary (curved) edges

    @property
    def is_boundary(self):
        return len(self.tris) == 1


class CurvedTriangulation:
    """Validated triangulation of a piecewise-conic domain."""

    def __init__(self, domain, vertices, triangles, edges, edge_index, vertex_tris,
                 vertex_is_boundary, vertex_tangent, level=1, parents=None):
        self.domain = domain
        self.vertices = vertices
        self.triangles = triangles
        self.edges = edges
        self._edge_index = edge_index            # sorted pair -> edge id
        self._vertex_tris = vertex_tris          # vertex -> triangles, ascending
        self.vertex_is_boundary = vertex_is_boundary
        self.vertex_tangent = vertex_tangent     # member of V_B^1
        self.level = level
        self.parents = parents                   # triangle -> parent triangle

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def edge_id(self, va, vb):
        return self._edge_index[(min(va, vb), max(va, vb))]

    def vertex_triangles(self, v):
        return self._vertex_tris[v]

    def tri_coords(self, t):
        return self.vertices[list(self.triangles[t].verts)]

    def triangles_of_kind(self, kind):
        return [t for t, rec in enumerate(self.triangles) if rec.kind == kind]

    def interior_vertices(self):
        return [v for v in range(self.n_vertices) if not self.vertex_is_boundary[v]]

    def boundary_vertices(self):
        return [v for v in range(self.n_vertices) if self.vertex_is_boundary[v]]

    def interior_edges(self):
        return [e for e, rec in enumerate(self.edges) if not rec.is_boundary]

    def plain_interior_edges(self):
        """Interior edges that are not pie/buffer edges."""
        return [e for e, rec in enumerate(self.edges) if not rec.is_boundary
                and {self.triangles[t].kind for t in rec.tris} != {PIE, BUFFER}]

    def pie_conic(self, t):
        """The boundary conic of a pie triangle."""
        return self.domain.arcs[self.triangles[t].arc].conic

    # -- stars ------------------------------------------------------------

    def star(self, simplices, level=1):
        """Triangles whose closure meets the given simplices, iterated.

        Accepts triangle indices or ('v'|'e'|'t', index) tags.  In a valid
        triangulation two closed simplices intersect iff they share a
        vertex, so stars are computed through vertex incidence.
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
                    verts.update(self.edges[idx].verts)
                elif tag == "t":
                    verts.update(self.triangles[idx].verts)
                else:
                    raise ValueError(f"unknown simplex tag {tag}")
            else:
                verts.update(self.triangles[s].verts)
        for _ in range(level):
            for v in verts:
                tris.update(self._vertex_tris[v])
            verts = set()
            for t in tris:
                verts.update(self.triangles[t].verts)
        return tris


# ---------------------------------------------------------------------------
# classification + validation

def classify_and_validate(domain, vertices, triangles, boundary_edges,
                          level=1, parents=None):
    """Build a validated CurvedTriangulation from raw mesh data.

    vertices: (n, 2) float array; triangles: (m, 3) int array (any
    orientation); boundary_edges: list of (va, vb, arc_index) chords lying
    under the domain arcs.
    """
    vertices = np.asarray(vertices, dtype=float)
    tris_in = [tuple(int(v) for v in t) for t in np.asarray(triangles, dtype=int)]
    scale = max(1.0, float(np.abs(vertices).max()))

    # consistent ccw orientation
    tris = []
    for t in tris_in:
        a, b, c = vertices[t[0]], vertices[t[1]], vertices[t[2]]
        ab, ac = b - a, c - a
        area2 = float(ab[0] * ac[1] - ab[1] * ac[0])
        if abs(area2) < 1e-14 * scale * scale:
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
        declared[tuple(sorted((int(va), int(vb))))] = int(arc)
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
        if domain.arcs[arc_idx].conic.degree != 2:
            raise MeshError("f", f"boundary edge {key} lies on a straight segment")

    vertex_is_boundary = np.zeros(len(vertices), dtype=bool)
    for key in actual_boundary:
        vertex_is_boundary[list(key)] = True

    # (a) arc corners are vertices
    for j, z in enumerate(domain.corners):
        d = np.linalg.norm(vertices - np.asarray(z), axis=1)
        v = int(np.argmin(d))
        if d[v] > 1e-9 * scale or not vertex_is_boundary[v]:
            raise MeshError("a", f"arc corner {j} at {tuple(z)} is not a boundary vertex")

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
            records.append(TriangleRecord((v1, v2, v3), PIE, arcs[ti]))
        elif kinds[ti] == BUFFER:
            bverts = [k for k in range(3) if vertex_is_boundary[t[k]]]
            if len(bverts) != 1:
                raise MeshError(
                    "mesh", f"buffer triangle {ti} has {len(bverts)} boundary vertices"
                )
            k = bverts[0]
            records.append(TriangleRecord((t[k], t[(k + 1) % 3], t[(k + 2) % 3]), BUFFER))
        else:
            records.append(TriangleRecord(t, ORDINARY))

    # (c), (g): forbidden adjacencies
    for key, owners in edge_tris.items():
        if len(owners) != 2:
            continue
        ka, kb = kinds[owners[0]], kinds[owners[1]]
        if ka == kb == PIE:
            raise MeshError("c", f"pie triangles {owners} share edge {key}")
        if ka == kb == BUFFER:
            raise MeshError("g", f"buffer triangles {owners} share edge {key}")

    # edge records
    edges = []
    edge_index = {}
    for key in sorted(edge_tris):
        edge_index[key] = len(edges)
        edges.append(EdgeRecord(key, tuple(edge_tris[key]), declared.get(key)))

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
        # the edges at v are the edges of its own triangles
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
        vertex_tangent[v] = conics_tangent_at(domain.arcs[arc_ids[0]].conic,
                                              domain.arcs[arc_ids[1]].conic, vertices[v])

    # (d) + (e): pie star-shapedness and conic positivity
    _check_pies(domain, vertices, records)

    mesh = CurvedTriangulation(
        domain, vertices, records, edges, edge_index, vert_tris,
        vertex_is_boundary, vertex_tangent, level=level, parents=parents,
    )

    # structural prerequisites of the dof construction
    for v in mesh.interior_vertices():
        if not any(mesh.triangles[t].kind == ORDINARY for t in mesh.vertex_triangles(v)):
            raise MeshError(
                "mesh", f"interior vertex {v} touches no ordinary triangle"
            )
    for v in mesh.boundary_vertices():
        ks = sorted(mesh.triangles[t].kind for t in mesh.vertex_triangles(v))
        if ks != [BUFFER, PIE, PIE]:
            raise MeshError(
                "mesh",
                f"boundary vertex {v} fan is {ks}, expected one buffer between two pies",
            )
    return mesh


# ---------------------------------------------------------------------------
# pie rays: arc points of many pies, one batched query per arc

def pie_arc_points(domain, arcs, v1, through):
    """Ray points of pies on their arcs: points[p, j] is arc_point_on_ray
    of arc arcs[p] from pie p's interior vertex v1[p] through through[p, j]
    ((P, m, 2) chord points), with one call per arc.

    Returns (points, failure).  failure is None when every ray meets its
    arc once, else (p, j, GeometryError) of the first failing ray in pie
    order, then j order; from that ray on, the points of its arc are NaN.
    """
    P, m = through.shape[:2]
    points = np.full((P * m, 2), np.nan)
    failure = None
    for a in np.unique(arcs):
        pies = np.flatnonzero(arcs == a)
        rows = (pies[:, None] * m + np.arange(m)).ravel()
        origin = np.repeat(v1[pies], m, axis=0)
        chord = through.reshape(-1, 2)[rows]
        try:
            points[rows] = arc_point_on_ray(domain.arcs[a], origin, chord)
        except GeometryError as exc:
            r = exc.row
            points[rows[:r]] = arc_point_on_ray(domain.arcs[a], origin[:r], chord[:r])
            p, j = divmod(int(rows[r]), m)
            if failure is None or (p, j) < failure[:2]:
                failure = (p, j, exc)
    return points.reshape(P, m, 2), failure


def conic_at_pies(fn, domain, arcs, x):
    """fn(conic, points) (eval_conic or grad_conic) of the arc conic of
    each pie p at its points x[p], one call per arc."""
    out = None
    for a in np.unique(arcs):
        on = arcs == a
        val = fn(domain.arcs[a].conic, x[on])
        if out is None:
            out = np.empty(x.shape[:1] + val.shape[1:])
        out[on] = val
    return out


STAR_SAMPLES = np.linspace(0.02, 0.98, 50)      # chord parameters of (d), (e)
STAR_RADII = np.array([0.25, 0.55, 0.8, 0.95])   # ray fractions of (e)


def _check_pies(domain, vertices, records):
    """Conditions (d) and (e) on every pie: the ray from the interior
    vertex v1 through each chord sample meets the arc once beyond the
    chord, and the conic is positive at v1 and at fixed fractions of each
    ray.  Reports the failure that a walk over the pies in order meets
    first: per pie, v1, then sample by sample the ray (d) and its points
    (e)."""
    pies = [ti for ti, rec in enumerate(records) if rec.kind == PIE]
    arcs = np.array([records[t].arc for t in pies])
    v1, v2, v3 = vertices[[records[t].verts for t in pies]].transpose(1, 0, 2)
    chord = v2[:, None] + STAR_SAMPLES[:, None] * (v3 - v2)[:, None]
    apt, failure = pie_arc_points(domain, arcs, v1, chord)
    x = v1[:, None, None] + STAR_RADII[:, None] * (apt - v1[:, None])[:, :, None]
    fails = []
    outside = conic_at_pies(eval_conic, domain, arcs, v1) <= 0
    if outside.any():
        p = int(np.argmax(outside))
        fails.append(((p, -1), MeshError(
            "e", f"conic not positive at interior vertex of pie {pies[p]}")))
    if failure is not None:
        p, j, exc = failure
        fails.append(((p, j), MeshError("d", f"pie {pies[p]} not star-shaped: {exc}")))
    inside = conic_at_pies(eval_conic, domain, arcs, x) <= 0
    if inside.any():
        p, j, k = np.unravel_index(np.argmax(inside), inside.shape)
        fails.append(((p, j), MeshError(
            "e", f"conic not positive inside pie {pies[p]} at {tuple(x[p, j, k])}")))
    if fails:
        raise min(fails, key=lambda f: f[0])[1]


# ---------------------------------------------------------------------------
# refinement

def refine_uniform(mesh):
    """Uniform refinement: each triangle splits at its edge midpoints.

    Straight edges split at the Euclidean midpoint; each curved edge splits
    at the intersection of its arc with the ray from the owning pie
    triangle's interior vertex through the chord midpoint.  The result is
    re-classified and re-validated from scratch.
    """
    # curved midpoints first, numbered in pie order
    pies = [rec for rec in mesh.triangles if rec.kind == PIE]
    v1, v2, v3 = mesh.vertices[[rec.verts for rec in pies]].transpose(1, 0, 2)
    apts, failure = pie_arc_points(mesh.domain, np.array([rec.arc for rec in pies]),
                                   v1, 0.5 * (v2 + v3)[:, None])
    if failure is not None:
        raise failure[2]
    verts = [tuple(p) for p in mesh.vertices] + [tuple(p) for p in apts[:, 0]]
    mid_of = {(min(b, c), max(b, c)): mesh.n_vertices + i
              for i, (_, b, c) in enumerate(rec.verts for rec in pies)}

    def straight_mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid_of:
            m = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
            mid_of[key] = len(verts)
            verts.append(tuple(m))
        return mid_of[key]

    new_tris = []
    parents = []
    for ti, rec in enumerate(mesh.triangles):
        a, b, c = rec.verts
        mab = straight_mid(a, b)
        mbc = straight_mid(b, c)
        mca = straight_mid(c, a)
        for child in ((a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)):
            new_tris.append(child)
            parents.append(ti)

    new_boundary = []
    for rec in mesh.edges:
        if rec.arc is None:
            continue
        va, vb = rec.verts
        m = mid_of[(min(va, vb), max(va, vb))]
        new_boundary.append((va, m, rec.arc))
        new_boundary.append((m, vb, rec.arc))

    return classify_and_validate(
        mesh.domain, np.asarray(verts, dtype=float), new_tris, new_boundary,
        level=mesh.level + 1, parents=parents,
    )


# ---------------------------------------------------------------------------
# mesh file IO

def mesh_to_dict(mesh, include_domain=True):
    data = {
        "vertices": [list(p) for p in mesh.vertices],
        "triangles": [list(rec.verts) for rec in mesh.triangles],
        "boundary": [
            [int(rec.verts[0]), int(rec.verts[1]), int(rec.arc)]
            for rec in mesh.edges if rec.arc is not None
        ],
    }
    if include_domain:
        data["domain"] = domain_to_dict(mesh.domain)
    return data


def mesh_from_dict(data, domain=None):
    if domain is None:
        if "domain" not in data:
            raise MeshError("mesh", "mesh file has no embedded domain and none was given")
        domain = domain_from_dict(data["domain"])
    return classify_and_validate(
        domain,
        np.asarray(data["vertices"], dtype=float),
        data["triangles"],
        data["boundary"],
    )


def load_mesh(path, domain=None):
    with open(path) as f:
        return mesh_from_dict(json.load(f), domain=domain)


def save_mesh(mesh, path, include_domain=True):
    with open(path, "w") as f:
        json.dump(mesh_to_dict(mesh, include_domain=include_domain), f, indent=1)
