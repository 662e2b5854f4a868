import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicfem import mesh as msh
from conicfem.geometry import GeometryError, arc_point_on_ray, eval_conic
from conicfem.mesh import BUFFER, ORDINARY, PIE, MeshError, refine_uniform
from conicfem.problems import builtin_domain, disk_domain, disk_wheel_points

from _oracles import (arc_point_on_ray_scalar, classify_and_validate_scalar,
                      curved_midpoints_scalar, pie_conditions_scalar, refine_inputs_scalar, star,
                      vertex_triangles)


def raw(m):
    """The domain, vertices, triangles and boundary edges that rebuild m."""
    data = msh.mesh_to_dict(m)
    return m.domain, m.vertices, data["triangles"], data["boundary"]


def counts(m):
    return {k: int(np.count_nonzero(m.tri_kind == k)) for k in (ORDINARY, BUFFER, PIE)}


def test_disk_classification(disk_mesh):
    assert counts(disk_mesh) == {ORDINARY: 8, BUFFER: 8, PIE: 8}
    # all boundary vertices have a tangent (single conic everywhere)
    assert disk_mesh.vertex_tangent[disk_mesh.vertex_is_boundary].all()
    # pie slot conventions: interior vertex first, boundary pair after
    on_boundary = disk_mesh.vertex_is_boundary[disk_mesh.tri_verts]
    assert (on_boundary[disk_mesh.tri_kind == PIE] == [False, True, True]).all()
    assert on_boundary[disk_mesh.tri_kind == BUFFER, 0].all()
    # arcs on pies only; edge triangles ascending, -1 after a boundary edge's one
    assert ((disk_mesh.tri_arc >= 0) == (disk_mesh.tri_kind == PIE)).all()
    et = disk_mesh.edge_tris
    assert ((et[:, 1] < 0) == (disk_mesh.edge_arc >= 0)).all()
    assert (et[et[:, 1] >= 0, 0] < et[et[:, 1] >= 0, 1]).all()


def test_euler_relation(disk_mesh, disk_mesh2, ellipse_mesh, lens_mesh):
    for m in (disk_mesh, disk_mesh2, ellipse_mesh, lens_mesh):
        assert m.n_vertices - len(m.edge_verts) + m.n_triangles == 1


def test_mesh_copies_its_input_and_is_read_only(wheels):
    dom, verts, tris, boundary = wheels["disk"]
    verts = verts.copy()
    m = msh.classify_and_validate(dom, verts, tris, boundary)
    before = m.vertices.copy()
    verts[0] += 5.0
    np.testing.assert_array_equal(m.vertices, before)
    for name in ("vertices", "tri_verts", "tri_kind", "tri_arc", "tri_edges", "edge_verts",
                 "edge_tris", "edge_arc", "vertex_is_boundary", "vertex_tangent"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(m, name)[0] = getattr(m, name)[1]
    with pytest.raises(ValueError, match="read-only"):
        refine_uniform(m).parents[0] = 1


def test_condition_c_rejected():
    # a single-interior-vertex fan on the disk: every triangle is pie-shaped,
    # so adjacent pies share straight edges
    dom = disk_domain()
    verts = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.1, 0.05)]
    tris = [(k, (k + 1) % 4, 4) for k in range(4)]
    boundary = [(k, (k + 1) % 4, k) for k in range(4)]
    with pytest.raises(MeshError) as err:
        msh.classify_and_validate(dom, verts, tris, boundary)
    assert err.value.condition == "c"


def test_condition_b_rejected(disk_mesh):
    # connect two boundary vertices by an interior edge
    dom = disk_mesh.domain
    ang = [np.pi * k / 4 for k in range(8)]
    b = [(np.cos(t), np.sin(t)) for t in ang]
    verts = list(b) + [(0.0, 0.0)]
    tris = [(k, (k + 1) % 8, 8) for k in range(8)]
    boundary = [(k, (k + 1) % 8, k // 2) for k in range(8)]
    with pytest.raises(MeshError) as err:
        msh.classify_and_validate(dom, verts, tris, boundary)
    assert err.value.condition in ("b", "c")


def test_condition_e_rejected(disk_mesh):
    # push one pie interior vertex outside the disk: the conic goes negative
    dom = disk_mesh.domain
    pts, arcs = disk_wheel_points()
    verts = np.array(pts + [tuple(0.55 * np.array([np.cos(t + np.pi / 8),
                                                   np.sin(t + np.pi / 8)]))
                            for t in [np.pi * k / 4 for k in range(8)]] + [(0, 0)])
    verts[8] = 1.2 * verts[8] / np.linalg.norm(verts[8]) * 2.2
    tris, boundary = [], []
    n = 8
    for i in range(n):
        j = (i + 1) % n
        tris += [(n + i, i, j), (i, n + (i - 1) % n, n + i),
                 (2 * n, n + (i - 1) % n, n + i)]
        boundary.append((i, j, arcs[i]))
    with pytest.raises(MeshError) as err:
        msh.classify_and_validate(dom, verts, tris, boundary)
    assert err.value.condition in ("d", "e")


def test_condition_e_at_interior_vertex_message(wheels):
    dom, verts, tris, boundary = wheels["disk"]
    verts = verts.copy()
    verts[8] *= 2.64 / np.linalg.norm(verts[8])     # pie 0's interior vertex
    with pytest.raises(MeshError) as err:
        msh.classify_and_validate(dom, verts, tris, boundary)
    assert str(err.value) == "condition (e): conic not positive at interior vertex of pie 0"


def test_condition_e_inside_pie_message(wheels):
    # the ray from pie 18's interior vertex crosses the bite's circle before
    # the chord and leaves it beyond: one crossing, through negative conic
    dom, verts, tris, boundary = wheels["circle-bite"]
    with pytest.raises(MeshError) as err:
        msh.classify_and_validate(dom, verts, tris, boundary)
    assert err.value.condition == "e"
    assert str(err.value).startswith("condition (e): conic not positive inside pie 18 at (")
    assert "np." not in str(err.value)      # plain floats, not numpy scalar reprs
    assert pie_conditions_scalar(dom, verts, tris, boundary) == ("e", str(err.value))


def test_condition_d_message(wheels):
    # the rays of pie 18 enter the bite's hyperbola before the chord and
    # never leave it: no crossing beyond the through point
    dom, verts, tris, boundary = wheels["hyperbola-bite"]
    with pytest.raises(MeshError) as err:
        msh.classify_and_validate(dom, verts, tris, boundary)
    assert str(err.value) == (
        "condition (d): pie 18 not star-shaped: expected one ray/arc crossing "
        "beyond the through point, found 0 (star-shapedness violated?)")


def test_pie_check_casts_fifty_rays_per_pie(disk_mesh2, monkeypatch):
    # (d)/(e) sample every pie at chord parameters 0.02, ..., 0.98 (50),
    # one batched query per arc with the arc's pies in mesh order
    calls = []

    def spy(arc, origin, through):
        calls.append((arc, origin, through))
        return arc_point_on_ray(arc, origin, through)

    m = disk_mesh2
    monkeypatch.setattr(msh, "arc_point_on_ray", spy)
    msh.classify_and_validate(*raw(m))
    assert [c[0] for c in calls] == list(m.domain.arcs)
    s = np.linspace(0.02, 0.98, 50)[:, None]
    for a, (_, origin, through) in enumerate(calls):
        pies = m.tri_verts[(m.tri_kind == PIE) & (m.tri_arc == a)]
        v1, v2, v3 = m.vertices[pies].transpose(1, 0, 2)
        np.testing.assert_array_equal(origin, np.repeat(v1, 50, axis=0))
        np.testing.assert_array_equal(
            through, np.concatenate([b + s * (c - b) for b, c in zip(v2, v3)]))


def test_pie_conditions_match_scalar_walk(wheels, hierarchies):
    # interior vertices moved at random, several pies failing at once: the
    # batched check reports the scalar walk's first failure, word for word
    bases = list(wheels.values())
    for pid, level in (("disk", 2), ("ellipse-exp", 2), ("c2-domain", 1)):
        bases.append(raw(hierarchies[pid][level - 1]))
    rng = np.random.default_rng(3)
    seen = set()
    for dom, verts, tris, boundary in bases:
        inner = np.ones(len(verts), dtype=bool)
        inner[[v for b in boundary for v in b[:2]]] = False
        scale = np.abs(verts).max()
        for size in np.repeat([0.0, 0.03, 0.1, 0.3], 3):
            moved = verts.copy()
            moved[inner] += size * scale * rng.standard_normal((inner.sum(), 2))
            try:
                msh.classify_and_validate(dom, moved, tris, boundary)
                got = None
            except MeshError as exc:
                if exc.condition not in ("d", "e"):
                    continue
                got = (exc.condition, str(exc))
            assert got == pie_conditions_scalar(dom, moved, tris, boundary)
            seen.add(got and got[1].split(" pie ")[0])
    assert seen == {None, "condition (d):",
                    "condition (e): conic not positive at interior vertex of",
                    "condition (e): conic not positive inside"}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10**9))
def test_pie_arc_points_report_the_first_failing_ray(n_pies, m, seed):
    # pies on random arcs of the disk, rays from inside through points
    # that may lie beyond the circle (no crossing ahead)
    dom = disk_domain()
    rng = np.random.default_rng(seed)
    arcs = rng.integers(0, len(dom.arcs), n_pies)
    v1 = rng.uniform(-0.6, 0.6, (n_pies, 2))
    through = v1[:, None] + rng.uniform(-0.7, 0.7, (n_pies, m, 2))
    points, failure = msh.pie_arc_points(dom, arcs, v1, through)
    first, failed_arcs = None, set()
    for p in range(n_pies):
        for j in range(m):
            try:
                want = arc_point_on_ray_scalar(dom.arcs[arcs[p]], v1[p], through[p, j])
            except GeometryError as exc:
                first = first or (p, j, str(exc))
                failed_arcs.add(arcs[p])
                want = np.full(2, np.nan)
            if arcs[p] in failed_arcs:      # from the arc's first failure on
                want = np.full(2, np.nan)
            np.testing.assert_array_equal(points[p, j], want)
    assert (failure and (*failure[:2], str(failure[2]))) == first


def test_fans_joined_at_one_vertex_rejected(disk_mesh):
    # two copies of the disk mesh that share only their centre vertex pass
    # the Euler relation; the centre's triangle fan is disconnected
    n = disk_mesh.n_vertices
    centre = int(np.argmin(np.linalg.norm(disk_mesh.vertices, axis=1)))
    copy = [v if v == centre else n + v - (v > centre) for v in range(n)]
    verts = np.vstack([disk_mesh.vertices, np.delete(disk_mesh.vertices, centre, axis=0)])
    _, _, tris, boundary = raw(disk_mesh)
    tris += [tuple(copy[v] for v in t) for t in tris]
    boundary += [(copy[a], copy[b], arc) for a, b, arc in boundary]
    assert len(verts) - 2 * len(disk_mesh.edge_verts) + len(tris) == 1
    with pytest.raises(MeshError, match=f"vertex {centre} has a disconnected triangle fan"):
        msh.classify_and_validate(disk_mesh.domain, verts, tris, boundary)


def test_refine_counts_and_midpoints(disk_mesh, disk_mesh2):
    assert disk_mesh2.n_triangles == 4 * disk_mesh.n_triangles
    curved = disk_mesh2.edge_arc >= 0
    for (va, vb), arc in zip(disk_mesh2.edge_verts[curved], disk_mesh2.edge_arc[curved]):
        conic = disk_mesh2.domain.arcs[arc].conic
        for v in (va, vb):
            assert abs(eval_conic(conic, disk_mesh2.vertices[v])) < 1e-13
    kinds2 = counts(disk_mesh2)
    assert kinds2[PIE] == 16 and kinds2[BUFFER] == 16


def test_refine_straight_midpoint_rule():
    # an ordinary parent spawns children at the three edge midpoints
    dom, mesh = builtin_domain("disk")
    fine = refine_uniform(mesh)
    t = np.flatnonzero(mesh.tri_kind == ORDINARY)[0]
    tri = mesh.vertices[mesh.tri_verts[t]]
    mids = {tuple(np.round(0.5 * (tri[i] + tri[j]), 12))
            for i in range(3) for j in range(i + 1, 3)}
    children = [c for c in range(fine.n_triangles) if fine.parents[c] == t]
    assert len(children) == 4
    child_verts = set()
    for c in children:
        for v in fine.tri_verts[c]:
            child_verts.add(tuple(np.round(fine.vertices[v], 12)))
    assert mids <= child_verts


def test_refine_pie_curved_midpoint():
    dom, mesh = builtin_domain("disk")
    fine = refine_uniform(mesh)
    t = np.flatnonzero(mesh.tri_kind == PIE)[0]
    v1, v2, v3 = mesh.vertices[mesh.tri_verts[t]]
    chord_mid = 0.5 * (v2 + v3)
    direction = chord_mid - v1
    # the curved-edge midpoint lies on the ray from the interior vertex
    children = [c for c in range(fine.n_triangles) if fine.parents[c] == t]
    new_bd = [v for c in children for v in fine.tri_verts[c]
              if fine.vertex_is_boundary[v]
              and not any(np.allclose(fine.vertices[v], p) for p in (v2, v3))]
    x = fine.vertices[new_bd[0]]
    cross = (x - v1)[0] * direction[1] - (x - v1)[1] * direction[0]
    assert abs(cross) < 1e-12
    assert abs(np.linalg.norm(x) - 1.0) < 1e-13


def test_curved_midpoints_match_scalar_rule(hierarchies):
    # refinement keeps the coarse vertices, then numbers the curved
    # midpoints in pie order
    for meshes in hierarchies.values():
        for coarse, fine in zip(meshes, meshes[1:]):
            n = coarse.n_vertices
            want = curved_midpoints_scalar(coarse)
            np.testing.assert_array_equal(fine.vertices[:n], coarse.vertices)
            np.testing.assert_array_equal(fine.vertices[n:n + len(want)], want)


def test_refinement_preserves_conditions_deep():
    # six levels on the disk and the ellipse, five on the C2 domain
    for pid, levels in (("disk", 6), ("ellipse-exp", 6), ("c2-domain", 5)):
        _, mesh = builtin_domain(pid)
        for _ in range(levels - 1):
            mesh = refine_uniform(mesh)
        assert mesh.level == levels
        assert mesh.n_vertices - len(mesh.edge_verts) + mesh.n_triangles == 1


def test_star_properties(disk_mesh):
    v = int(np.flatnonzero(~disk_mesh.vertex_is_boundary)[0])
    st1 = star(disk_mesh, [("v", v)])
    assert st1 == set(vertex_triangles(disk_mesh, v).tolist())
    t0 = 0
    assert t0 in star(disk_mesh, [t0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = int(rng.integers(disk_mesh.n_triangles))
        s1 = star(disk_mesh, [t])
        s2 = star(disk_mesh, [t], level=2)
        assert s1 <= s2
    e = int(np.flatnonzero(disk_mesh.edge_tris[:, 1] >= 0)[0])
    se = star(disk_mesh, [("e", e)])
    assert set(disk_mesh.edge_tris[e].tolist()) <= se


def test_corner_vertices_with_straight_angle_in_tangent_set(disk_mesh):
    # the disk's four arc corners have interior angle pi and stay tangent
    for j, z in enumerate(disk_mesh.domain.corners):
        d = np.linalg.norm(disk_mesh.vertices - z, axis=1)
        v = int(np.argmin(d))
        assert disk_mesh.vertex_tangent[v]


def test_lens_corners_not_tangent(lens_mesh):
    corners = lens_mesh.domain.corners
    flags = []
    for z in corners:
        d = np.linalg.norm(lens_mesh.vertices - z, axis=1)
        flags.append(bool(lens_mesh.vertex_tangent[int(np.argmin(d))]))
    assert flags == [False, False]
    others = [v for v in np.flatnonzero(lens_mesh.vertex_is_boundary)
              if not any(np.allclose(lens_mesh.vertices[v], z) for z in corners)]
    assert all(lens_mesh.vertex_tangent[v] for v in others)


def test_mesh_file_roundtrip(tmp_path, disk_mesh):
    path = tmp_path / "disk_mesh.json"
    msh.save_mesh(disk_mesh, path)
    again = msh.load_mesh(path)
    assert again.n_triangles == disk_mesh.n_triangles
    np.testing.assert_array_equal(again.tri_kind, disk_mesh.tri_kind)


def test_mesh_file_must_be_an_object_with_a_domain(disk_mesh):
    with pytest.raises(MeshError, match=r"^condition \(mesh\): mesh file: expected a JSON "
                                        "object, got list$"):
        msh.mesh_from_dict([1, 2])
    data = msh.mesh_to_dict(disk_mesh)
    del data["domain"]
    with pytest.raises(MeshError, match=r"^condition \(mesh\): mesh file has no embedded "
                                        "domain$"):
        msh.mesh_from_dict(data)


def test_boundary_mismatch_reported(tmp_path, disk_mesh):
    data = msh.mesh_to_dict(disk_mesh)
    data["boundary"] = data["boundary"][:-1]
    with pytest.raises(MeshError):
        msh.mesh_from_dict(data)


def test_fractional_indices_rejected(disk_mesh):
    # 0.7 more on every triangle's first vertex would truncate back to the
    # original mesh; the first triangle or boundary edge is named
    data = msh.mesh_to_dict(disk_mesh)
    good = [list(t) for t in data["triangles"]]
    data["triangles"] = [[t[0] + 0.7] + t[1:] for t in good]
    with pytest.raises(MeshError, match=r"^condition \(mesh\): triangle 0 \(.*\) has a "
                                        "non-integral index$"):
        msh.mesh_from_dict(data)
    data["triangles"] = good
    data["boundary"] = [list(b) for b in data["boundary"]]
    data["boundary"][3][2] = 1.5
    with pytest.raises(MeshError, match=r"boundary edge 3 \(.*, 1\.5\) has a non-integral"):
        msh.mesh_from_dict(data)
    data["boundary"][3][2] = 1.0      # integral floats pass
    assert msh.mesh_from_dict(data).n_triangles == disk_mesh.n_triangles


def _disk_data(**change):
    data = msh.mesh_to_dict(builtin_domain("disk")[1])
    return dict(data, **{k: f(data) for k, f in change.items()})


def _with_vertex(x):
    return lambda d: d["vertices"][:3] + [x] + d["vertices"][4:]


@pytest.mark.parametrize("change, message", [
    ({"triangles": lambda d: [t[:2] for t in d["triangles"]]},
     "triangles[0] is [8, 0], expected 3 numbers"),
    ({"triangles": lambda d: [t + [8] for t in d["triangles"]]},
     "triangles[0] is [8, 0, 1, 8], expected 3 numbers"),
    ({"triangles": lambda d: sum(d["triangles"], [])}, "triangles[0] is 8, expected 3 numbers"),
    ({"triangles": lambda d: d["triangles"][:5] + [[1, 2]] + d["triangles"][6:]},
     "triangles[5] is [1, 2], expected 3 numbers"),
    ({"triangles": lambda d: {}}, "triangles: expected a list of rows of 3 numbers, got dict"),
    ({"boundary": lambda d: sum(d["boundary"], [])}, "boundary[0] is 0, expected 3 numbers"),
    ({"vertices": lambda d: [v + [0.0] for v in d["vertices"]]},
     "vertices[0] is [1.0, 0.0, 0.0], expected 2 numbers"),
    ({"vertices": lambda d: sum(d["vertices"], [])}, "vertices[0] is 1.0, expected 2 numbers"),
    ({k: lambda d: [] for k in ("vertices", "triangles", "boundary")}, "vertices is empty"),
    ({"vertices": _with_vertex([np.nan, 0.0])}, "vertices[3] is [nan, 0.0], expected finite numbers"),
    ({"vertices": _with_vertex([0.0, -np.inf])},
     "vertices[3] is [0.0, -inf], expected finite numbers"),
], ids=["pairs", "four-entry-rows", "flat-triangles", "ragged-triangles", "triangles-object",
        "flat-boundary", "vertices-n-3", "flat-vertices", "empty", "nan-vertex", "inf-vertex"])
def test_mesh_arrays_of_wrong_shape_or_non_finite_rejected(change, message):
    # shapes and finite coordinates are checked before anything reads the arrays
    with pytest.raises(MeshError) as err:
        msh.mesh_from_dict(_disk_data(**change))
    assert str(err.value) == f"condition (mesh): {message}"


# ---------------------------------------------------------------------------
# the array validation against the scalar walk

N_RIM = 8                   # the disk wheel: rim 0-7, ring 8-15, centre 16
RING, CENTRE = N_RIM, 2 * N_RIM


def _without(tris, *drop):
    return [t for t in tris if tuple(t) not in drop]


def _two_disks(dom, V, T, B, shared):
    """Two copies of a mesh that share the vertices `shared`, numbered
    from 1; vertex 0 lies in no triangle."""
    n = len(V)
    copy = [v if v in shared else n + v for v in range(n)]
    used = [v for v in range(2 * n) if v < n or v - n not in shared]
    new = {v: k + 1 for k, v in enumerate(used)}
    tris = [tuple(new[v] for v in t) for t in T] + [tuple(new[copy[v]] for v in t) for t in T]
    boundary = [(new[a], new[b], k) for a, b, k in B] + [(new[copy[a]], new[copy[b]], k)
                                                       for a, b, k in B]
    return dom, np.vstack([[0.1, 0.1], V, V])[[0] + [v + 1 for v in used]], tris, boundary


def _corrupted(name, dom, V, T, B):
    """Raw disk-wheel data broken to fail with the named message."""
    V, i = V.copy(), 2
    if name == "degenerate triangle":
        return dom, V, [(1, 1, 8)] + T[1:], B
    if name == "edge shared by 3 triangles":
        return dom, V, T + [(CENTRE, RING, RING + 2)], B
    if name == "vertex not on its conic":
        V[3] *= 1.001
        return dom, V, T, B
    if name == "(a) arc corner not a vertex":
        c, s = np.cos(0.1), np.sin(0.1)
        return dom, V @ np.array([[c, s], [-s, c]]), T, B
    if name == "triangles fold over an edge":
        V[CENTRE] = [0.6, 0.0]
        return dom, V, T, B
    if name == "boundary edge mismatch":
        return dom, V, T, B[:-1]
    if name == "boundary edge declared twice":
        va, vb, arc = B[0]
        return dom, V, T, B + [(vb, va, (arc + 2) % len(dom.arcs))]
    if name == "more than one boundary edge":
        n, ang = len(V), np.array([0.3, 0.4, 0.5])
        return (dom, np.vstack([V, np.column_stack([np.cos(ang), np.sin(ang)])]),
                T + [(n, n + 1, n + 2)], B + [(n, n + 1, 0), (n + 1, n + 2, 0), (n + 2, n, 0)])
    # split buffer i (and below, the ordinary triangle across its inner edge)
    a, b, w = RING + i - 1, RING + i, len(V)
    rest = _without(T, (i, a, b), (CENTRE, a, b))
    if name == "(g) buffers share an edge":
        return (dom, np.vstack([V, 0.5 * (V[a] + V[b])]), rest
                + [(i, a, w), (i, w, b), (CENTRE, a, w), (CENTRE, w, b)], B)
    if name == "boundary fan not buffer between pies":
        inside = np.array([[0.6, 0.25, 0.15], [0.6, 0.15, 0.25]]) @ V[[i, a, b]]
        return (dom, np.vstack([V, inside]), _without(T, (i, a, b))
                + [(i, a, w), (i, w, w + 1), (i, w + 1, b), (a, w + 1, w), (a, b, w + 1)], B)
    if name == "Euler relation":
        n = len(V)
        return (dom, np.vstack([V, V]), T + [tuple(v + n for v in t) for t in T],
                B + [(p + n, q + n, k) for p, q, k in B])
    if name == "isolated vertex":
        # two disks sharing two opposite ring vertices: Euler holds again
        return _two_disks(dom, V, T, B, shared=(RING, RING + 4))
    raise KeyError(name)


def _as_records(m):
    """The array mesh in the oracle's record form."""
    arc = lambda a: None if a < 0 else a
    return (
        [(tuple(v), k, arc(a)) for v, k, a in zip(m.tri_verts.tolist(), m.tri_kind.tolist(),
                                                   m.tri_arc.tolist())],
        [(tuple(v), tuple(t for t in ts if t >= 0), arc(a)) for v, ts, a in
         zip(m.edge_verts.tolist(), m.edge_tris.tolist(), m.edge_arc.tolist())],
        m.vertex_is_boundary.tolist(), m.vertex_tangent.tolist(),
        [vertex_triangles(m, v).tolist() for v in range(m.n_vertices)],
    )


def _assert_same_outcome(data):
    """classify_and_validate and the scalar walk raise the same MeshError,
    word for word, or build the same triangulation; returns the mesh or
    the message."""
    try:
        ref = classify_and_validate_scalar(*data)
    except MeshError as exc:
        with pytest.raises(MeshError) as err:
            msh.classify_and_validate(*data)
        assert (err.value.condition, str(err.value)) == (exc.condition, str(exc))
        return str(exc)
    m = msh.classify_and_validate(*data)
    assert _as_records(m) == (ref.triangles, ref.edges, ref.vertex_is_boundary.tolist(),
                              ref.vertex_tangent.tolist(), ref.vertex_tris)
    return m


@pytest.mark.parametrize("case, message", [
    ("degenerate triangle", "condition (mesh): degenerate triangle (1, 1, 8)"),
    ("edge shared by 3 triangles", "condition (mesh): edge (8, 16) shared by 3 triangles"),
    ("vertex not on its conic",
     "condition (mesh): vertex 3 not on conic of arc 1 (|q|=2.00e-03)"),
    ("(a) arc corner not a vertex",
     "condition (a): arc corner 0 at (1.0, 0.0) is not a boundary vertex"),
    ("boundary edge mismatch",
     "condition (mesh): boundary edge mismatch (undeclared: [(0, 7)], declared-but-interior: [])"),
    ("boundary edge declared twice", "condition (mesh): boundary edge (0, 1) declared twice"),
    ("more than one boundary edge", "condition (mesh): triangle 24 has 3 boundary edges"),
    ("(g) buffers share an edge", "condition (g): buffer triangles [22, 23] share edge (2, 17)"),
    ("Euler relation", "condition (mesh): Euler relation |V|-|E|+|T| = 1 violated"),
    ("isolated vertex", "condition (mesh): isolated vertex 0"),
    ("boundary fan not buffer between pies",
     "condition (mesh): boundary vertex 2 fan is ['buffer', 'buffer', 'ordinary', 'pie', "
     "'pie'], expected one buffer between two pies"),
    ("triangles fold over an edge",
     "condition (mesh): triangles [1, 2] lie on the same side of their edge (8, 15)"),
    ("disk", 4), ("ellipse-exp", 4), ("c2-domain", 3),
])
def test_validation_matches_scalar_walk(wheels, monkeypatch, case, message):
    # broken wheels fail with the scalar walk's message; the built-in
    # hierarchies, and the data refinement hands to validation, match the
    # walk's records and midpoint numbering
    if isinstance(message, str):
        got = _assert_same_outcome(_corrupted(case, *wheels["disk"]))
        assert got == message
        return
    inputs = []
    validate = msh.classify_and_validate
    monkeypatch.setattr(msh, "classify_and_validate",
                        lambda *args, **kw: inputs.append(args) or validate(*args, **kw))
    _, mesh = builtin_domain(case)
    for level in range(2, message + 1):
        fine = refine_uniform(mesh)
        verts, children, boundary, parents = refine_inputs_scalar(mesh)
        np.testing.assert_array_equal(inputs[-1][1], verts)
        assert inputs[-1][2].tolist() == [list(t) for t in children]
        assert inputs[-1][3].tolist() == [list(b) for b in boundary]
        assert fine.parents.tolist() == parents and fine.level == level
        mesh = fine
    monkeypatch.undo()
    for data in inputs:
        assert _assert_same_outcome(data) is not None


def test_validation_matches_scalar_walk_after_edge_flips(wheels, hierarchies):
    # flipping interior edges breaks (b), (c) and (g), often several at
    # once: the first failure, or the mesh, is the scalar walk's
    rng = np.random.default_rng(5)
    bases = [wheels["disk"], raw(hierarchies["disk"][1]), raw(hierarchies["c2-domain"][0])]
    seen = set()
    for _ in range(120):
        dom, V, T, B = bases[rng.integers(len(bases))]
        T = [list(t) for t in T]
        for _ in range(rng.integers(1, 7)):
            t1, k = rng.integers(len(T)), rng.integers(3)
            a, b = T[t1][k], T[t1][(k + 1) % 3]
            t2 = [u for u, t in enumerate(T) if u != t1 and a in t and b in t]
            if t2:
                c = [v for v in T[t1] if v not in (a, b)][0]
                d = [v for v in T[t2[0]] if v not in (a, b)][0]
                T[t1], T[t2[0]] = [c, d, a], [c, d, b]
        got = _assert_same_outcome((dom, V, T, B))
        seen.add(got[:len("condition (x)")] if isinstance(got, str) else "valid")
    assert {"valid", "condition (b)", "condition (c)", "condition (g)"} <= seen
