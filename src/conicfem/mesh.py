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

(f) holds by construction: every arc of a ConicDomain is a genuine conic
(geometry.Conic rejects straight pieces), so it has no check of its own.

A triangulation is a bundle of read-only arrays, built and checked in
whole-mesh array steps.  Triangulations are immutable after validation;
refinement returns a new value, so read-sharing across threads needs no
coordination.  A mesh file is a JSON object that embeds its domain.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from . import bernstein as bb
from .geometry import (
    GeometryError,
    arc_point_on_ray,
    domain_from_dict,
    domain_to_dict,
    eval_conic,
    grad_conic,
    gradients_parallel,
    is_number_list,
)

ORDINARY = "ordinary"
BUFFER = "buffer"
PIE = "pie"


class MeshError(ValueError):
    """Triangulation violates a structural condition."""

    def __init__(self, condition, message):
        self.condition = condition
        super().__init__(f"condition ({condition}): {message}")


@dataclass(frozen=True, eq=False, repr=False)
class CurvedTriangulation:
    """Validated triangulation of a piecewise-conic domain: V vertices,
    T triangles and E edges as read-only arrays.

    tri_verts (T, 3) are counter-clockwise vertex triples; pies hold their
    interior vertex in slot 0 and the curved edge as (slot 1, slot 2),
    buffers their boundary vertex in slot 0.  tri_kind (T,) is ORDINARY,
    BUFFER or PIE, tri_arc (T,) the arc of a pie's curved edge (-1 off
    pies), tri_edges (T, 3) the edge from slot k to slot k + 1, parents
    (T,) the triangle of the coarser level (None on an unrefined mesh).
    edge_verts (E, 2) are sorted vertex pairs in lexicographic order,
    edge_tris (E, 2) the incident triangles, ascending (-1 in column 1 of
    a boundary edge), edge_arc (E,) the arc of a boundary edge (-1 on
    interior edges).  vertex_tangent marks V_B^1, the boundary vertices
    whose two arcs share a tangent.
    """

    domain: object
    vertices: np.ndarray
    tri_verts: np.ndarray
    tri_kind: np.ndarray
    tri_arc: np.ndarray
    tri_edges: np.ndarray
    edge_verts: np.ndarray
    edge_tris: np.ndarray
    edge_arc: np.ndarray
    vertex_is_boundary: np.ndarray
    vertex_tangent: np.ndarray
    level: int = 1
    parents: np.ndarray = None

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.tri_verts)


# ---------------------------------------------------------------------------
# classification + validation

def classify_and_validate(domain, vertices, triangles, boundary_edges,
                          level=1, parents=None):
    """Build a validated CurvedTriangulation from raw mesh data.

    vertices: (n, 2) float array; triangles: (m, 3) int array (any
    orientation); boundary_edges: (k, 3) rows (va, vb, arc_index), chords
    lying under the domain arcs.  The mesh keeps copies of the arrays.

    Each check reports the failure that a walk in mesh order meets first:
    array shapes and finite coordinates, triangles, edges in order of
    first occurrence over the triangles' edges (slots 0-1, 1-2, 2-0),
    vertices, declared boundary edges.
    """
    vertices = _rows("vertices", vertices, 2)
    raw_tris = _rows("triangles", triangles, 3)
    raw_bnd = _rows("boundary", boundary_edges, 3)
    for i in np.flatnonzero(~np.isfinite(vertices).all(axis=1))[:1]:
        raise MeshError("mesh", f"vertices[{i}] is {vertices[i].tolist()}, expected finite "
                        "numbers")
    n = len(vertices)
    # indices must be finite integers: a cast to int would truncate them
    for what, raw in (("triangle", raw_tris), ("boundary edge", raw_bnd)):
        for i in np.flatnonzero((~np.isfinite(raw) | (np.trunc(raw) != raw)).any(axis=1))[:1]:
            raise MeshError("mesh", f"{what} {i} {tuple(raw[i].tolist())} has a non-integral index")

    # indices in range, checked before the cast that would wrap one beyond
    # int64: vertices of triangles and boundary edges, then arcs
    def named(raw, i):
        return tuple(int(v) for v in raw[i].tolist())

    for t in np.flatnonzero(((raw_tris < 0) | (raw_tris >= n)).any(axis=1))[:1]:
        raise MeshError("mesh", f"triangle {t} {named(raw_tris, t)} has a vertex "
                        f"index outside 0..{n - 1}")
    for i in np.flatnonzero(((raw_bnd[:, :2] < 0) | (raw_bnd[:, :2] >= n)).any(axis=1))[:1]:
        raise MeshError("mesh", f"boundary edge {i} {named(raw_bnd, i)} has a vertex "
                        f"index outside 0..{n - 1}")
    n_arcs = len(domain.arcs)
    for i in np.flatnonzero((raw_bnd[:, 2] < 0) | (raw_bnd[:, 2] >= n_arcs))[:1]:
        raise MeshError("mesh", f"boundary edge {i} {named(raw_bnd, i)} has an arc "
                        f"index outside 0..{n_arcs - 1}")
    tris, bnd = raw_tris.astype(int), raw_bnd.astype(int)
    scale = max(1.0, float(np.abs(vertices).max()))

    # consistent ccw orientation; degenerate relative to each triangle's size
    for t in np.flatnonzero(bb.degenerate(vertices[tris]))[:1]:
        raise MeshError("mesh", f"degenerate triangle {tuple(tris[t].tolist())}")
    tris = np.where((bb.triangle_area(vertices[tris]) > 0)[:, None], tris, tris[:, [0, 2, 1]])

    # edges: one per sorted vertex pair; half-edge 3t + k runs from slot k to k + 1
    halves = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)], axis=-1), axis=-1)
    halves = halves.reshape(-1, 2)
    _, first, he_edge, count = np.unique(halves[:, 0] * n + halves[:, 1], return_index=True,
                                         return_inverse=True, return_counts=True)
    edge_verts = halves[first]
    walk = np.argsort(first)                 # edges in order of first occurrence

    def key(e):
        return tuple(edge_verts[e].tolist())

    for e in walk[count[walk] > 2][:1]:
        raise MeshError("mesh", f"edge {key(e)} shared by {count[e]} triangles")
    inner = count == 2
    by_edge = np.argsort(he_edge, kind="stable")
    start = np.cumsum(count) - count
    edge_tris = np.full((len(count), 2), -1)
    edge_tris[:, 0] = by_edge[start] // 3
    edge_tris[inner, 1] = by_edge[start[inner] + 1] // 3
    he_edge = he_edge.reshape(-1, 3)

    declared = {}
    for va, vb, arc in bnd.tolist():
        edge = (min(va, vb), max(va, vb))
        if edge in declared:
            raise MeshError("mesh", f"boundary edge {edge} declared twice")
        declared[edge] = arc
    actual_boundary = set(map(tuple, edge_verts[~inner].tolist()))
    if actual_boundary != set(declared):
        missing = actual_boundary - set(declared)
        extra = set(declared) - actual_boundary
        raise MeshError(
            "mesh",
            f"boundary edge mismatch (undeclared: {sorted(missing)}, "
            f"declared-but-interior: {sorted(extra)})",
        )
    edge_arc = np.full(len(count), -1)
    edge_arc[~inner] = [declared[k] for k in map(tuple, edge_verts[~inner].tolist())]

    # boundary edge endpoints must sit on their arc's conic
    ends = np.array(list(declared), dtype=int).reshape(-1, 2)
    arcs = np.array(list(declared.values()), dtype=int)
    q = np.abs(conic_rows(eval_conic, domain, arcs, vertices[ends]))
    kmax = np.array([max(np.abs(arc.conic.coeffs)) for arc in domain.arcs])
    bad = q > 1e-9 * scale * scale * kmax[arcs, None]
    if bad.any():
        i, k = divmod(int(np.argmax(bad)), 2)
        raise MeshError(
            "mesh", f"vertex {ends[i, k]} not on conic of arc {arcs[i]} (|q|={q[i, k]:.2e})"
        )

    vertex_is_boundary = np.zeros(n, dtype=bool)
    vertex_is_boundary[edge_verts[~inner]] = True

    # (a) arc corners are vertices
    for j, z in enumerate(domain.corners):
        d = np.linalg.norm(vertices - np.asarray(z), axis=1)
        v = int(np.argmin(d))
        if d[v] > 1e-9 * scale or not vertex_is_boundary[v]:
            raise MeshError("a", f"arc corner {j} at {tuple(z.tolist())} is not a boundary vertex")

    # (b) interior edges with both endpoints on the boundary
    chord = inner & vertex_is_boundary[edge_verts].all(axis=1)
    for e in walk[chord[walk]][:1]:
        raise MeshError("b", f"interior edge {key(e)} has both endpoints on the boundary")

    # classification: a pie has a boundary edge, a buffer a pie across an edge
    he_boundary = ~inner[he_edge]
    nb = he_boundary.sum(axis=1)
    for t in np.flatnonzero(nb > 1)[:1]:
        raise MeshError("mesh", f"triangle {t} has {nb[t]} boundary edges")
    pie = nb == 1
    across = edge_tris[he_edge].sum(axis=-1) - np.arange(len(tris))[:, None]
    buffer = ~pie & (pie[across] & ~he_boundary).any(axis=1)
    tri_kind = np.where(pie, PIE, np.where(buffer, BUFFER, ORDINARY))

    # canonical slots: a pie starts at the vertex opposite its boundary edge,
    # a buffer at its one boundary vertex (the chord rule (b) leaves it one)
    off = np.argmax(he_boundary, axis=1)
    first_slot = np.where(pie, (off + 2) % 3,
                          np.where(buffer, np.argmax(vertex_is_boundary[tris], axis=1), 0))
    slots = (first_slot[:, None] + np.arange(3)) % 3
    tri_verts = np.take_along_axis(tris, slots, axis=1)
    tri_edges = np.take_along_axis(he_edge, slots, axis=1)
    tri_arc = np.where(pie, edge_arc[tri_edges[:, 1]], -1)

    # (c), (g): forbidden adjacencies
    pies_meet = inner & pie[edge_tris].all(axis=1)
    buffers_meet = inner & buffer[edge_tris].all(axis=1)
    for e in walk[(pies_meet | buffers_meet)[walk]][:1]:
        letter, name = ("c", "pie") if pies_meet[e] else ("g", "buffer")
        raise MeshError(letter, f"{name} triangles {edge_tris[e].tolist()} share edge {key(e)}")

    # euler characteristic of a disk
    if n - len(edge_verts) + len(tris) != 1:
        raise MeshError("mesh", "Euler relation |V|-|E|+|T| = 1 violated")

    # vertex fans: the corners 3t + k (triangle t at slot k) of a vertex
    # must be joined through the interior edges at it.  A triangle has two
    # edges at each of its vertices, so a connected fan is a cycle at an
    # interior vertex and a path between two boundary edges at a boundary
    # vertex; its link needs no further check.
    corners = tris.ravel()
    by_vertex = np.argsort(corners, kind="stable")
    fan_size = np.bincount(corners, minlength=n)
    h1, h2 = by_edge[start[inner]], by_edge[start[inner] + 1]   # the halves of interior edges
    e1, e2 = (h - h % 3 + (h + 1) % 3 for h in (h1, h2))         # the corners at their ends
    same = corners[h1] == corners[h2]
    rows = np.concatenate([h1, e1])
    cols = np.concatenate([np.where(same, h2, e2), np.where(same, e2, h2)])
    joins = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(corners),) * 2)
    label = connected_components(joins, directed=False)[1][by_vertex]
    at = corners[by_vertex]
    split = np.zeros(n, dtype=bool)
    split[at[1:][(at[1:] == at[:-1]) & (label[1:] != label[:-1])]] = True
    isolated = fan_size == 0
    for v in np.flatnonzero(isolated | split)[:1]:
        raise MeshError("mesh", f"isolated vertex {v}" if isolated[v]
                        else f"vertex {v} has a disconnected triangle fan")

    # V_B^1: boundary tangent continuity via gradient collinearity
    bd = np.flatnonzero(~inner)
    order = np.argsort(edge_verts[bd].ravel(), kind="stable")
    bv = edge_verts[bd].ravel()[order][::2]
    two_arcs = np.repeat(edge_arc[bd], 2)[order].reshape(-1, 2)
    vertex_tangent = np.zeros(n, dtype=bool)
    vertex_tangent[bv] = gradients_parallel(
        *(conic_rows(grad_conic, domain, two_arcs[:, i], vertices[bv]) for i in (0, 1)))

    # (d) + (e): pie star-shapedness and conic positivity
    pies = np.flatnonzero(pie)
    _check_pies(domain, vertices, pies, tri_verts[pies], tri_arc[pies])

    # structural prerequisite of the dof construction: every boundary fan
    # is buffer between pies (an interior fan always holds an ordinary
    # triangle, by (b), (c) and (g))
    pies_at = np.bincount(corners[np.repeat(pie, 3)], minlength=n)
    buffers_at = np.bincount(corners[np.repeat(buffer, 3)], minlength=n)
    fan = (fan_size == 3) & (pies_at == 2) & (buffers_at == 1)
    for v in np.flatnonzero(vertex_is_boundary & ~fan)[:1]:
        ks = sorted(tri_kind[(tris == v).any(axis=1)].tolist())
        raise MeshError(
            "mesh", f"boundary vertex {v} fan is {ks}, expected one buffer between two pies"
        )

    # no fold: the two ccw triangles of an interior edge run it in opposite directions
    folded = np.flatnonzero(inner)[same]
    for e in folded[np.argsort(first[folded])][:1]:
        raise MeshError("mesh", f"triangles {edge_tris[e].tolist()} lie on the same side "
                        f"of their edge {key(e)}")

    return CurvedTriangulation(
        domain, vertices, tri_verts, tri_kind, tri_arc, tri_edges, edge_verts, edge_tris,
        edge_arc, vertex_is_boundary, vertex_tangent,
        level=level, parents=None if parents is None else np.array(parents, dtype=int),
    )


def _rows(name, raw, width):
    """The mesh array `name` as a float (n, width) array with n >= 1, else
    a MeshError that names the array.  Mesh files have each row checked
    by mesh_from_dict, which names the first bad one."""
    if not isinstance(raw, (list, tuple, np.ndarray)):
        raise MeshError("mesh", f"{name}: expected a list of rows of {width} numbers, got "
                        f"{type(raw).__name__}")
    if not len(raw):
        raise MeshError("mesh", f"{name} is empty")
    try:
        a = np.array(raw, dtype=float)
    except (TypeError, ValueError):     # ragged rows, or entries that are not numbers
        a = None
    if a is None or a.ndim != 2 or a.shape[1] != width:
        raise MeshError("mesh", f"{name}: expected a list of rows of {width} numbers")
    return a


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


def conic_rows(fn, domain, arcs, x):
    """fn(conic, points) (eval_conic or grad_conic) of the conic of arc
    arcs[p] at the points x[p], one call per arc."""
    out = np.empty(x.shape[:1] + fn(domain.arcs[0].conic, x[:0]).shape[1:])
    for a in np.unique(arcs):
        on = arcs == a
        out[on] = fn(domain.arcs[a].conic, x[on])
    return out


STAR_SAMPLES = np.linspace(0.02, 0.98, 50)      # chord parameters of (d), (e)
STAR_RADII = np.array([0.25, 0.55, 0.8, 0.95])   # ray fractions of (e)


def _check_pies(domain, vertices, pies, verts, arcs):
    """Conditions (d) and (e) on the pies (their triangle indices, vertex
    triples and arcs): the ray from the interior vertex v1 through each
    chord sample meets the arc once beyond the chord, and the conic is
    positive at v1 and at fixed fractions of each ray.  Reports the failure
    that a walk over the pies in order meets first: per pie, v1, then
    sample by sample the ray (d) and its points (e)."""
    v1, v2, v3 = vertices[verts].transpose(1, 0, 2)
    chord = v2[:, None] + STAR_SAMPLES[:, None] * (v3 - v2)[:, None]
    apt, failure = pie_arc_points(domain, arcs, v1, chord)
    x = v1[:, None, None] + STAR_RADII[:, None] * (apt - v1[:, None])[:, :, None]
    fails = []
    outside = conic_rows(eval_conic, domain, arcs, v1) <= 0
    if outside.any():
        p = int(np.argmax(outside))
        fails.append(((p, -1), MeshError(
            "e", f"conic not positive at interior vertex of pie {pies[p]}")))
    if failure is not None:
        p, j, exc = failure
        fails.append(((p, j), MeshError("d", f"pie {pies[p]} not star-shaped: {exc}")))
    inside = conic_rows(eval_conic, domain, arcs, x) <= 0
    if inside.any():
        p, j, k = np.unravel_index(np.argmax(inside), inside.shape)
        fails.append(((p, j), MeshError(
            "e", f"conic not positive inside pie {pies[p]} at {tuple(x[p, j, k].tolist())}")))
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
    pies = np.flatnonzero(mesh.tri_kind == PIE)
    v1, v2, v3 = mesh.vertices[mesh.tri_verts[pies]].transpose(1, 0, 2)
    apts, failure = pie_arc_points(mesh.domain, mesh.tri_arc[pies], v1, 0.5 * (v2 + v3)[:, None])
    if failure is not None:
        raise failure[2]
    # the midpoint vertex of each edge: curved ones in pie order, then
    # straight ones in order of first occurrence over the triangles' edges
    n, walk = mesh.n_vertices, mesh.tri_edges.ravel()
    mid = np.full(len(mesh.edge_verts), -1)
    mid[mesh.tri_edges[pies, 1]] = n + np.arange(len(pies))
    straight, first = np.unique(walk[mid[walk] < 0], return_index=True)
    straight = straight[np.argsort(first)]
    mid[straight] = n + len(pies) + np.arange(len(straight))
    vertices = np.concatenate([mesh.vertices, apts[:, 0],
                               0.5 * mesh.vertices[mesh.edge_verts[straight]].sum(axis=1)])

    a, b, c = mesh.tri_verts.T
    mab, mbc, mca = mid[mesh.tri_edges].T
    children = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca], axis=1)
    curved = np.flatnonzero(mesh.edge_arc >= 0)
    (va, vb), m, arc = mesh.edge_verts[curved].T, mid[curved], mesh.edge_arc[curved]
    return classify_and_validate(
        mesh.domain, vertices, children.reshape(-1, 3),
        np.stack([va, m, arc, m, vb, arc], axis=1).reshape(-1, 3),
        level=mesh.level + 1, parents=np.repeat(np.arange(mesh.n_triangles), 4),
    )


# ---------------------------------------------------------------------------
# mesh file IO

def mesh_to_dict(mesh):
    return {
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.tri_verts.tolist(),
        "boundary": np.column_stack([mesh.edge_verts, mesh.edge_arc])[mesh.edge_arc >= 0].tolist(),
        "domain": domain_to_dict(mesh.domain),
    }


def mesh_from_dict(data):
    """The validated mesh of a mesh file's JSON object, which embeds its
    domain.  Every row of its arrays must be a list of numbers by the file
    readers' rule (geometry.is_number_list)."""
    if not isinstance(data, dict):
        raise MeshError("mesh", f"mesh file: expected a JSON object, got {type(data).__name__}")
    if "domain" not in data:
        raise MeshError("mesh", "mesh file has no embedded domain")
    for key, width in (("vertices", 2), ("triangles", 3), ("boundary", 3)):
        if key not in data:
            raise MeshError("mesh", f'mesh file has no "{key}": expected a list of rows of '
                            f"{width} numbers")
        for i, row in enumerate(data[key] if isinstance(data[key], list) else []):
            if not is_number_list(row, width):
                raise MeshError("mesh", f"{key}[{i}] is {json.dumps(row)}, expected {width} "
                                "numbers")
    return classify_and_validate(domain_from_dict(data["domain"]), data["vertices"],
                                 data["triangles"], data["boundary"])


def load_mesh(path):
    with open(path) as f:
        return mesh_from_dict(json.load(f))


def save_mesh(mesh, path):
    with open(path, "w") as f:
        json.dump(mesh_to_dict(mesh), f, indent=1)
