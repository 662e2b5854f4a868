import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicfem import mesh as msh
from conicfem.geometry import GeometryError, arc_point_on_ray, eval_conic
from conicfem.mesh import BUFFER, ORDINARY, PIE, MeshError, refine_uniform
from conicfem.problems import builtin_domain, disk_domain, disk_wheel_points

from _oracles import arc_point_on_ray_scalar, curved_midpoints_scalar, pie_conditions_scalar


def test_disk_classification(disk_mesh):
    counts = {k: len(disk_mesh.triangles_of_kind(k)) for k in (ORDINARY, BUFFER, PIE)}
    assert counts == {ORDINARY: 8, BUFFER: 8, PIE: 8}
    # all boundary vertices have a tangent (single conic everywhere)
    assert all(disk_mesh.vertex_tangent[v] for v in disk_mesh.boundary_vertices())
    # pie slot conventions: interior vertex first, boundary pair after
    for t in disk_mesh.triangles_of_kind(PIE):
        rec = disk_mesh.triangles[t]
        assert not disk_mesh.vertex_is_boundary[rec.verts[0]]
        assert disk_mesh.vertex_is_boundary[rec.verts[1]]
        assert disk_mesh.vertex_is_boundary[rec.verts[2]]
    for t in disk_mesh.triangles_of_kind(BUFFER):
        rec = disk_mesh.triangles[t]
        assert disk_mesh.vertex_is_boundary[rec.verts[0]]


def test_euler_relation(disk_mesh, disk_mesh2, ellipse_mesh, lens_mesh):
    for m in (disk_mesh, disk_mesh2, ellipse_mesh, lens_mesh):
        assert m.n_vertices - len(m.edges) + m.n_triangles == 1


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
    msh.classify_and_validate(m.domain, m.vertices, [rec.verts for rec in m.triangles],
                              [(*rec.verts, rec.arc) for rec in m.edges if rec.arc is not None])
    assert [c[0] for c in calls] == list(m.domain.arcs)
    s = np.linspace(0.02, 0.98, 50)[:, None]
    for a, (_, origin, through) in enumerate(calls):
        pies = [m.triangles[t].verts for t in m.triangles_of_kind(PIE) if m.triangles[t].arc == a]
        v1, v2, v3 = m.vertices[pies].transpose(1, 0, 2)
        np.testing.assert_array_equal(origin, np.repeat(v1, 50, axis=0))
        np.testing.assert_array_equal(
            through, np.concatenate([b + s * (c - b) for b, c in zip(v2, v3)]))


def test_pie_conditions_match_scalar_walk(wheels, hierarchies):
    # interior vertices moved at random, several pies failing at once: the
    # batched check reports the scalar walk's first failure, word for word
    bases = list(wheels.values())
    for pid, level in (("disk", 2), ("ellipse-exp", 2), ("c2-domain", 1)):
        m = hierarchies[pid][level - 1]
        bases.append((m.domain, m.vertices, [rec.verts for rec in m.triangles],
                      [(*rec.verts, rec.arc) for rec in m.edges if rec.arc is not None]))
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
    tris = [rec.verts for rec in disk_mesh.triangles]
    tris += [tuple(copy[v] for v in t) for t in tris]
    boundary = [(*rec.verts, rec.arc) for rec in disk_mesh.edges if rec.arc is not None]
    boundary += [(copy[a], copy[b], arc) for a, b, arc in boundary]
    assert len(verts) - 2 * len(disk_mesh.edges) + len(tris) == 1
    with pytest.raises(MeshError, match=f"vertex {centre} has a disconnected triangle fan"):
        msh.classify_and_validate(disk_mesh.domain, verts, tris, boundary)


def test_refine_counts_and_midpoints(disk_mesh, disk_mesh2):
    assert disk_mesh2.n_triangles == 4 * disk_mesh.n_triangles
    for rec in disk_mesh2.edges:
        if rec.arc is not None:
            conic = disk_mesh2.domain.arcs[rec.arc].conic
            for v in rec.verts:
                assert abs(eval_conic(conic, disk_mesh2.vertices[v])) < 1e-13
    kinds2 = {k: len(disk_mesh2.triangles_of_kind(k)) for k in (ORDINARY, BUFFER, PIE)}
    assert kinds2[PIE] == 16 and kinds2[BUFFER] == 16


def test_refine_straight_midpoint_rule():
    # an ordinary parent spawns children at the three edge midpoints
    dom, mesh = builtin_domain("disk")
    fine = refine_uniform(mesh)
    t = mesh.triangles_of_kind(ORDINARY)[0]
    tri = mesh.tri_coords(t)
    mids = {tuple(np.round(0.5 * (tri[i] + tri[j]), 12))
            for i in range(3) for j in range(i + 1, 3)}
    children = [c for c in range(fine.n_triangles) if fine.parents[c] == t]
    assert len(children) == 4
    child_verts = set()
    for c in children:
        for v in fine.triangles[c].verts:
            child_verts.add(tuple(np.round(fine.vertices[v], 12)))
    assert mids <= child_verts


def test_refine_pie_curved_midpoint():
    dom, mesh = builtin_domain("disk")
    fine = refine_uniform(mesh)
    t = mesh.triangles_of_kind(PIE)[0]
    v1, v2, v3 = (mesh.vertices[i] for i in mesh.triangles[t].verts)
    chord_mid = 0.5 * (v2 + v3)
    direction = chord_mid - v1
    # the curved-edge midpoint lies on the ray from the interior vertex
    children = [c for c in range(fine.n_triangles) if fine.parents[c] == t]
    new_bd = [v for c in children for v in fine.triangles[c].verts
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
        assert mesh.n_vertices - len(mesh.edges) + mesh.n_triangles == 1


def test_star_properties(disk_mesh):
    v = disk_mesh.interior_vertices()[0]
    st1 = disk_mesh.star([("v", v)])
    assert st1 == set(disk_mesh.vertex_triangles(v))
    t0 = 0
    assert t0 in disk_mesh.star([t0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = int(rng.integers(disk_mesh.n_triangles))
        s1 = disk_mesh.star([t])
        s2 = disk_mesh.star([t], level=2)
        assert s1 <= s2
    e = disk_mesh.interior_edges()[0]
    se = disk_mesh.star([("e", e)])
    assert set(disk_mesh.edges[e].tris) <= se


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
    others = [v for v in lens_mesh.boundary_vertices()
              if not any(np.allclose(lens_mesh.vertices[v], z) for z in corners)]
    assert all(lens_mesh.vertex_tangent[v] for v in others)


def test_mesh_file_roundtrip(tmp_path, disk_mesh):
    path = tmp_path / "disk_mesh.json"
    msh.save_mesh(disk_mesh, path)
    again = msh.load_mesh(path)
    assert again.n_triangles == disk_mesh.n_triangles
    assert [r.kind for r in again.triangles] == [r.kind for r in disk_mesh.triangles]


def test_boundary_mismatch_reported(tmp_path, disk_mesh):
    data = msh.mesh_to_dict(disk_mesh)
    data["boundary"] = data["boundary"][:-1]
    with pytest.raises(MeshError):
        msh.mesh_from_dict(data)
