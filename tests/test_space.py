import numpy as np
import pytest

from conicfem import assembly as asm
from conicfem import bernstein as bb
from conicfem import space as sp
from conicfem.geometry import arc_point_on_ray, pie_conic
from conicfem.mesh import BUFFER, ORDINARY, PIE, refine_uniform
from conicfem.space import build_space, corner_block, quintic_reduction

from _oracles import (SweepPropagator, apply_design, barycentric, basis_support, bb_product,
                      bernstein_by_columns, boundary_samples_max, cross_edge_rows,
                      derivative_matrices, eval_bb, factor, jet_to_ring_matrix,
                      map_groups_by_unique, owner_dofs, patch, plain_interior_edges,
                      smoothness_report, space_dimension_by_rank, star, tri_degree,
                      vertex_triangles)


# ---------------------------------------------------------------------------
# the triangular corner system of the pie factor

def _corner_solve(a_ring, q):
    """The factor's vertex ring from the product's a_ring (6,), for the
    normalized conic q (6,), by the pie corner block."""
    return np.linalg.solve(corner_block(bb.product_matrix(4, 2, q)), a_ring)


def _normalized(q110, q101, q011):
    """BB form of a conic normalized like a pie's: 1 at the interior
    vertex, 0 at the two others."""
    im = bb.index_map(2)
    q = np.zeros(6)
    q[[im[(2, 0, 0)], im[(1, 1, 0)], im[(1, 0, 1)], im[(0, 1, 1)]]] = 1.0, q110, q101, q011
    return q


def test_factor_ring_diagonal_case():
    # vanishing off-corner conic coefficients decouple the system
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    c = _corner_solve(a, _normalized(0.0, 0.0, 0.0))
    assert np.allclose(c, [1.0, 3.0, 4.5, 10.0, 12.5, 15.0])
    # homogeneity
    assert np.allclose(_corner_solve(np.zeros(6), _normalized(0.3, -0.2, 0.7)), 0.0)


def test_factor_ring_product_round_trip():
    rng = np.random.default_rng(0)
    im6 = bb.index_map(6)
    im4 = bb.index_map(4)
    ring6 = bb.vertex_ring(6, 1)
    ring4 = bb.vertex_ring(4, 1)
    for _ in range(200):
        p = rng.standard_normal(15)
        q = _normalized(*rng.standard_normal(3))
        a = bb_product(4, p, 2, q)
        a_ring = np.array([a[im6[g]] for g in ring6])
        c = _corner_solve(a_ring, q)
        expect = np.array([p[im4[g]] for g in ring4])
        assert np.abs(c - expect).max() < 1e-12 * max(1.0, np.abs(expect).max())


def test_factor_ring_matrix_lower_triangular(hierarchies, lens_mesh):
    # on every pie of the disk, ellipse, c2 and lens meshes at levels 1-2
    meshes = [m for pid in ("disk", "ellipse-exp", "c2-domain") for m in hierarchies[pid][:2]]
    for mesh in meshes + [lens_mesh, refine_uniform(lens_mesh)]:
        pies = np.flatnonzero(mesh.tri_kind == PIE)
        q = pie_conic(mesh.domain.coeffs[mesh.tri_arc[pies]],
                      mesh.vertices[mesh.tri_verts[pies]])[0]
        L = corner_block(bb.product_matrix(4, 2, q))
        assert L.shape == (len(pies), 6, 6)
        assert np.array_equal(L, np.tril(L))
        assert (np.diagonal(L, axis1=1, axis2=2) > 0).all()


# ---------------------------------------------------------------------------
# determining set

def test_mds_counts_and_dimension(disk_mesh, disk_space):
    mds = disk_space.mds
    mesh = disk_mesh
    nvi = int(np.count_nonzero(~mesh.vertex_is_boundary))
    ne0 = len(plain_interior_edges(mesh))
    nvb1 = int(np.count_nonzero(mesh.vertex_tangent[mesh.vertex_is_boundary]))
    npie = int(np.count_nonzero(mesh.tri_kind == PIE))
    nbuf = int(np.count_nonzero(mesh.tri_kind == BUFFER))
    assert mds.dimension == 6 * nvi + ne0 + nvb1 + 5 * npie + 2 * nbuf
    assert mds.counts == {
        "vertex-jet": nvi, "edge": ne0, "tangent-corner": nvb1,
        "pie": npie, "buffer": nbuf,
    }
    # designated triangles of vertex/edge dofs are ordinary
    for cat in ("vertex-jet", "edge"):
        for t in mds.tri[mds.blocks[cat]]:
            assert mesh.tri_kind[t] == ORDINARY


def test_dimension_matches_rank_oracle(disk_mesh, ellipse_mesh, disk_space,
                                       ellipse_space):
    assert space_dimension_by_rank(disk_mesh) == disk_space.dimension
    assert space_dimension_by_rank(ellipse_mesh) == ellipse_space.dimension


def test_dimension_matches_rank_oracle_level2(disk_mesh2, disk_space2):
    assert space_dimension_by_rank(disk_mesh2) == disk_space2.dimension
    # pies double under refinement
    assert np.count_nonzero(disk_mesh2.tri_kind == PIE) == 16


def test_non_tangent_corner_has_no_dof(lens_mesh, lens_space):
    space = lens_space
    corner_ids = []
    for z in lens_mesh.domain.corners:
        d = np.linalg.norm(lens_mesh.vertices - z, axis=1)
        corner_ids.append(int(np.argmin(d)))
    for v in corner_ids:
        assert v not in owner_dofs(space.mds, "tangent-corner")
    assert space_dimension_by_rank(lens_mesh) == space.dimension


# ---------------------------------------------------------------------------
# propagation

def test_zero_dofs_give_zero_spline(disk_space):
    z = disk_space.spline(np.zeros(disk_space.dimension))
    for t in range(disk_space.mesh.n_triangles):
        assert np.abs(patch(z, t)).max() == 0.0


def test_duality(disk_space, lens_space, c2_space):
    # lens: non-tangent corners; c2 domain: conics meeting at tangent corners
    for space in (disk_space, lens_space, c2_space):
        eye = np.eye(space.dimension)
        for j in range(space.dimension):
            s = space.spline(eye[j])
            stored = np.zeros((space.mesh.n_triangles, 28))
            for t in range(space.mesh.n_triangles):
                f = factor(s, t)
                stored[t, :len(f)] = f
            ex = space.extract_dofs(stored)
            assert np.abs(ex - eye[j]).max() < 1e-12


def test_extract_dofs_needs_a_row_of_28_per_triangle(disk_space):
    n = disk_space.mesh.n_triangles
    for shape in ((n, 21), (n + 1, 28), (28 * n,)):
        with pytest.raises(ValueError, match=r"expected \(n_triangles, 28\) = \(24, 28\)"):
            disk_space.extract_dofs(np.zeros(shape))


def test_propagation_consistency_defect(disk_space, ellipse_space, lens_space,
                                        c2_space):
    for space in (disk_space, ellipse_space, lens_space, c2_space):
        assert space.fill_defect < 1e-12


def _seed_and_then(extra):
    """The dof seeding step followed by extra(self, t, pos) on the triangle
    and stored position of dof 0."""
    seed = sp._Propagator._seed_dofs

    def step(self):
        seed(self)
        extra(self, self.mds.tri[0], self.mds.pos[0])
    return step


def test_fill_checks_raise(disk_mesh, monkeypatch):
    def redefine(rel):
        return _seed_and_then(lambda self, t, pos: self._emit(
            [t], [[pos]], [[[1.0 + rel]]], [[0]], from_dofs=True))

    # a second definition within 1e-8 is reported as the fill defect
    monkeypatch.setattr(sp._Propagator, "_seed_dofs", redefine(1e-10))
    assert 0.5e-10 < build_space(disk_mesh).fill_defect < 2e-10
    # beyond 1e-8 it fails the fill
    monkeypatch.setattr(sp._Propagator, "_seed_dofs", redefine(1e-7))
    with pytest.raises(sp.PropagationError, match="inconsistent fill"):
        build_space(disk_mesh)
    # so does a step that reads a coefficient before a later step sets it
    late = (np.flatnonzero(disk_mesh.tri_kind == BUFFER)[0], bb.index_map(6)[(0, 3, 3)])
    monkeypatch.setattr(sp._Propagator, "_seed_dofs", _seed_and_then(
        lambda self, t, pos: self._emit(
            [t], [[pos]], [[[1.0]]], [[self.offset[late[0]] + late[1]]])))
    with pytest.raises(sp.PropagationError, match="reads an unset"):
        build_space(disk_mesh)
    monkeypatch.undo()
    # and a coefficient that no step defines
    monkeypatch.setattr(sp._Propagator, "_finish_pies_and_buffers",
                        lambda self: None)
    with pytest.raises(sp.PropagationError, match="unset"):
        build_space(disk_mesh)


def test_fill_steps_emit_once_per_step(disk_mesh, disk_mesh2):
    # every fill step is a whole-mesh array step: its number of _emit
    # calls does not grow with the mesh
    def calls(mesh):
        prop = sp._Propagator(mesh, sp.build_mds(mesh))
        count = []
        emit = prop._emit
        prop._emit = lambda *args, **kwargs: count.append(1) or emit(*args, **kwargs)
        out = []
        for step in (prop._seed_dofs, prop._fill_rings, prop._fill_ordinary,
                     prop._fill_buffer_from_ordinary, prop._fill_factor_corners,
                     prop._fill_chords_and_buffer_edges, prop._finish_pies_and_buffers):
            before = len(count)
            step()
            out.append(len(count) - before)
        return out

    assert calls(disk_mesh) == calls(refine_uniform(disk_mesh2)) == [1] * 7


def test_fill_makes_no_sparse_matrices(disk_mesh, hierarchies, monkeypatch):
    # the fixed cost of a build: no scipy sparse matrix at disk L1 or L3
    from scipy.sparse import _base
    made, init = [], _base._spbase.__init__
    monkeypatch.setattr(_base._spbase, "__init__",
                        lambda self, *args, **kwargs: made.append(1) or init(self, *args, **kwargs))

    def count(mesh):
        made.clear()
        build_space(mesh)
        return len(made)

    assert count(disk_mesh) == count(hierarchies["disk"][2]) == 0


def test_sorted_keys_agree_with_the_stable_argsort():
    # the packed sort, and the stable argsort it falls back to when the keys
    # and entry numbers do not fit in int64 together
    keys = np.random.default_rng(3).integers(0, 50, 1000)
    for width in (6, 64):
        order, key = sp._sorted(keys.copy(), width)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(key, np.sort(keys))


def test_map_groups_leave_the_fill_outputs_alone(disk_mesh):
    prop = sp._Propagator(disk_mesh, sp.build_mds(disk_mesh))
    Z = prop.run()
    before = [a.copy() for a in Z]
    sp._map_groups(disk_mesh, prop, Z)
    assert all(_same_bits(a, b) for a, b in zip(Z, before))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("level, name", [(level, name) for level in (1, 2) for name in
                                         ("disk_mesh", "ellipse_mesh", "lens_mesh", "c2")]
                         + [(3, "disk_mesh"), (3, "c2")])
def test_fill_by_level_matches_the_sweeps_and_the_global_sort(name, level, request,
                                                              hierarchies):
    # bit for bit, signs of zero included: the map evaluated level by level
    # and split per triangle against the equations solved as global CSR
    # matrices by sweeps to a fixed point and split by one np.unique over
    # (triangle, column) keys
    mesh = (hierarchies["c2-domain"][0] if name == "c2" else request.getfixturevalue(name))
    for _ in range(level - 1):
        mesh = refine_uniform(mesh)
    space = build_space(mesh)
    prop = SweepPropagator(mesh, space.mds)
    want = map_groups_by_unique(mesh, prop, prop.run())
    assert space.fill_defect == prop.defect
    assert len(space.groups) == len(want)
    for got, ref in zip(space.groups, want):
        assert (got.kind, got.degree) == (ref.kind, ref.degree)
        for field in ("tris", "cols", "Z", "stored"):
            assert _same_bits(getattr(got, field), getattr(ref, field)), field


def test_design_matrices_match_the_per_column_formula(disk_space2):
    # bit for bit at the curved quadrature nodes of the pies of disk L2,
    # stacked per pie, and flat
    mesh = disk_space2.mesh
    pies = np.flatnonzero(mesh.tri_kind == PIE)
    nodes, _ = asm.pie_quadrature(mesh, pies)
    bary = bb.barycentric_many(mesh.vertices[mesh.tri_verts[pies]], nodes)
    for b in (bary, bary.reshape(-1, 3)):
        for order in range(4):
            got = bb.design_matrices(6, b, order=order)
            assert len(got) == order + 1
            for s, B in enumerate(got):
                assert _same_bits(B, bernstein_by_columns(6 - s, b)) and B.flags.c_contiguous
        assert _same_bits(bb.bernstein_matrix(5, b), bernstein_by_columns(5, b))


def test_jet_to_ring_matches_scalar_rule(c2_space):
    # bit for bit, on every (triangle, slot) of the fill and on random
    # triangles, where x * x in place of the scalar x ** 2 shows
    mesh = c2_space.mesh
    tris = np.array([mesh.vertices[mesh.tri_verts[t]] for t in range(mesh.n_triangles)])
    tris, slots = np.repeat(tris, 3, axis=0), np.tile([1, 2, 3], mesh.n_triangles)
    d = np.repeat(np.where(mesh.tri_kind == ORDINARY, 5, 6), 3)
    rng = np.random.default_rng(10)
    tris = np.concatenate([tris, rng.standard_normal((10_000, 3, 2))])
    slots = np.concatenate([slots, rng.integers(1, 4, 10_000)])
    d = np.concatenate([d, rng.integers(5, 7, 10_000)])
    got = sp.jet_to_ring_matrices(tris, slots, d)
    want = np.array([jet_to_ring_matrix(*args) for args in zip(tris, slots, d)])
    assert np.array_equal(got, want)


def test_smoothness_and_boundary_random(disk_space, ellipse_space, lens_space,
                                        c2_space):
    rng = np.random.default_rng(1)
    for space in (disk_space, ellipse_space, lens_space, c2_space):
        for _ in range(5):
            dofs = rng.standard_normal(space.dimension)
            s = space.spline(dofs)
            g0, g1 = smoothness_report(space, s)
            assert g0 < 1e-10 and g1 < 1e-10
            bmax = boundary_samples_max(space, s)
            assert bmax <= 1e-10 * np.abs(dofs).max()


def test_twice_differentiable_at_interior_vertices(disk_space):
    rng = np.random.default_rng(2)
    mesh = disk_space.mesh
    s = disk_space.spline(rng.standard_normal(disk_space.dimension))
    for v in np.flatnonzero(~mesh.vertex_is_boundary):
        hs = [s.evaluate(mesh.vertices[v], [t])[2][0]
              for t in vertex_triangles(mesh, v)]
        scale = max(np.abs(hs[0]).max(), 1.0)
        for h in hs[1:]:
            assert np.abs(h - hs[0]).max() < 1e-8 * scale


def test_pie_patch_is_product(disk_space):
    rng = np.random.default_rng(3)
    s = disk_space.spline(rng.standard_normal(disk_space.dimension))
    mesh = disk_space.mesh
    for t in np.flatnonzero(mesh.tri_kind == PIE):
        a = patch(s, t)
        p = factor(s, t)
        q = pie_conic(mesh.domain.arcs[mesh.tri_arc[t]].conic,
                      mesh.vertices[mesh.tri_verts[t]])[0]
        prod = bb_product(4, p, 2, q)
        assert np.abs(a - prod).max() < 1e-12 * max(1.0, np.abs(a).max())


def test_pie_corner_product_coefficient_two_routes(disk_space):
    # the product coefficient next to each boundary-vertex end of a
    # pie/buffer edge is reachable two ways: through the smoothness
    # condition from the buffer side, and through the full product; they
    # must agree
    rng = np.random.default_rng(8)
    s = disk_space.spline(rng.standard_normal(disk_space.dimension))
    mesh = disk_space.mesh
    im6 = bb.index_map(6)
    for t in np.flatnonzero(mesh.tri_kind == PIE):
        verts = mesh.tri_verts[t].tolist()
        v1, v2, v3 = verts
        for other, target in ((v3, (1, 1, 4)), (v2, (1, 4, 1))):
            e = np.flatnonzero((mesh.edge_verts == sorted((v1, other))).all(axis=1))[0]
            buf = [x for x in mesh.edge_tris[e] if x != t][0]
            verts_b = mesh.tri_verts[buf].tolist()
            shared = (v1, other)
            src_slots = tuple(verts_b.index(v) + 1 for v in shared)
            dst_slots = tuple(verts.index(v) + 1 for v in shared)
            off_dst = 6 - dst_slots[0] - dst_slots[1]
            w = mesh.vertices[verts[off_dst - 1]]
            b_off = barycentric(mesh.vertices[mesh.tri_verts[buf]], w)
            _, c1 = cross_edge_rows(6, patch(s, buf), src_slots, dst_slots,
                                       b_off)
            via_smoothness = c1[target]
            via_product = patch(s, t)[im6[target]]
            scale = max(1.0, abs(via_product))
            assert abs(via_smoothness - via_product) < 1e-12 * scale


# ---------------------------------------------------------------------------
# evaluation

def _points_by_kind(space, rng, per_tri=3):
    """Points and the triangle each lies in: inside every triangle, away
    from its sides, and on pies also between the chord and the arc."""
    mesh = space.mesh
    pts, tris = [], []
    for t, (kind, arc) in enumerate(zip(mesh.tri_kind, mesh.tri_arc)):
        tri = mesh.vertices[mesh.tri_verts[t]]
        b = 0.1 + 0.7 * rng.dirichlet((1.0, 1.0, 1.0), per_tri)
        pts += list((b / b.sum(axis=1, keepdims=True)) @ tri)
        tris += [t] * per_tri
        if kind == PIE:
            chord = tri[1] + rng.uniform(0.1, 0.9, per_tri)[:, None] * (tri[2] - tri[1])
            for c, a in zip(chord, arc_point_on_ray(mesh.domain.arcs[arc].conic, tri[0], chord)):
                pts.append(tri[0] + rng.uniform(0.3, 0.9) * (a - tri[0]))
                if barycentric(tri, a)[0] < 0:    # the arc bulges out
                    pts.append(c + rng.uniform(0.1, 0.9) * (a - c))
                tris += [t] * (len(pts) - len(tris))
    return np.array(pts), np.array(tris)


def test_point_queries_match_oracle(c2_space):
    # c2: ordinary, buffer and pie triangles
    space, mesh = c2_space, c2_space.mesh
    rng = np.random.default_rng(4)
    s = space.spline(rng.standard_normal(space.dimension))
    pts, want = _points_by_kind(space, rng)
    beyond = [t for t, x in zip(want, pts) if mesh.tri_kind[t] == PIE
              and barycentric(mesh.vertices[mesh.tri_verts[t]], x)[0] < 0]
    assert len(beyond) > 20        # between a pie's chord and its arc
    np.testing.assert_array_equal(space.locate(pts), want)
    got = s.evaluate(pts)
    for order in range(3):
        ref = np.array([eval_bb(tri_degree(space, t), patch(s, t),
                                mesh.vertices[mesh.tri_verts[t]], x, order=order)
                        for t, x in zip(want, pts)])
        assert np.abs(got[order] - ref).max() <= 1e-12 * np.abs(ref).max()
    # values only, on points located once
    vals, grads, hess = s.evaluate(pts, want, order=0)
    np.testing.assert_array_equal(vals, got[0])
    assert grads is None and hess is None
    # points on the boundary arcs: located on their pie, where s vanishes
    arc_pts = []
    u = np.array([0.25, 0.5, 0.75])[:, None]
    for t in np.flatnonzero(mesh.tri_kind == PIE):
        tri = mesh.vertices[mesh.tri_verts[t]]
        arc = mesh.domain.arcs[mesh.tri_arc[t]]
        arc_pts += list(arc_point_on_ray(arc.conic, tri[0], tri[1] + u * (tri[2] - tri[1])))
    assert (space.locate(arc_pts) >= 0).all()
    assert np.abs(s.evaluate(arc_pts, order=0)[0]).max() < 1e-10 * np.abs(s.dofs).max()
    # outside the domain
    out = np.array([[5.0, 5.0], [-5.0, 0.0]])
    np.testing.assert_array_equal(space.locate(out), [-1, -1])
    with pytest.raises(ValueError, match=r"^point \(5\.0, 5\.0\) is outside"):
        s.evaluate(np.vstack([pts[:3], out]))


def test_eval_spline_matches_patches(disk_space, disk_space2, c2_space):
    # a point's values do not depend on the points evaluated with it: one
    # call over points on triangles of every map group, some outside the
    # triangle they are given, against each point alone, bit for bit
    rng = np.random.default_rng(4)
    for space in (disk_space2, build_space(refine_uniform(c2_space.mesh))):
        assert {grp.kind for grp in space.groups} == {ORDINARY, BUFFER, PIE}
        s = space.spline(rng.standard_normal(space.dimension))
        tris = np.concatenate([rng.choice(grp.tris, min(3, len(grp.tris)), replace=False)
                               for grp in space.groups])
        tris = rng.permutation(np.repeat(tris, 2))
        b = 1.6 * rng.dirichlet((1.0, 1.0, 1.0), len(tris)) - 0.2
        assert (b < 0).any(axis=1).sum() > 5
        pts = np.einsum("ni,nij->nj", b, space.mesh.vertices[space.mesh.tri_verts[tris]])
        for order in range(3):
            together = s.evaluate(pts, tris, order)
            for i in range(len(pts)):
                alone = s.evaluate(pts[i], tris[i:i + 1], order)
                for x, y in zip(together[:order + 1], alone[:order + 1], strict=True):
                    np.testing.assert_array_equal(x[i], y[0])
    # boundary points vanish
    s = disk_space.spline(rng.standard_normal(disk_space.dimension))
    th = np.linspace(0, 2 * np.pi, 17)[:-1]
    x = np.column_stack([np.cos(th), np.sin(th)]) * (1 - 1e-14)
    assert np.abs(s.evaluate(x, order=0)[0]).max() < 1e-10 * np.abs(s.dofs).max()
    with pytest.raises(ValueError):
        s.evaluate(np.array([2.0, 2.0]))


def test_evaluate_needs_one_triangle_per_point(disk_space):
    s = disk_space.spline(np.ones(disk_space.dimension))
    pts = 0.1 * disk_space.mesh.vertices[:4]
    with pytest.raises(ValueError, match=r"triangle indices of shape \(2,\) for 4 points"):
        s.evaluate(pts, [0, 1])
    with pytest.raises(ValueError, match="for 4 points"):
        s.evaluate(pts, [[0, 1, 2, 3]])
    # points come as (n, 2) or (2,): a (2, 3) array is not 3 points
    for bad in (pts.T[:, :3], pts[None], pts[0, :1], 0.1):
        with pytest.raises(ValueError, match=r"^points of shape .*, expected \(n, 2\) or \(2,\)$"):
            s.evaluate(bad)
        with pytest.raises(ValueError, match=r"^points of shape"):
            disk_space.locate(bad)
    # derivative orders are 0, 1 and 2
    for order in (3, -1, 1.0, None):
        with pytest.raises(ValueError, match=rf"^derivative order {order!r} is not 0, 1 or 2$"):
            s.evaluate(pts, order=order)


def test_evaluate_rejects_triangle_indices_out_of_range(disk_space):
    s = disk_space.spline(np.ones(disk_space.dimension))
    pts = 0.1 * disk_space.mesh.vertices[:4]
    n = disk_space.mesh.n_triangles
    for bad in (n, n + 7, -2):
        with pytest.raises(ValueError, match=rf"^triangle index {bad} of point 2 is outside "
                                             rf"-1\.\.{n - 1}$"):
            s.evaluate(pts, [0, 1, bad, 3])
    # and they are integers
    for bad in ([0.0, 1.0, 2.0, 3.0], [True, False, True, False], [0, 1, 2.5, 3]):
        with pytest.raises(ValueError, match=r"^triangle indices of type (float64|bool), "
                                             r"expected integers$"):
            s.evaluate(pts, bad)
    # -1 marks a point outside the triangulation, as space.locate gives it
    with pytest.raises(ValueError, match=r"^point \(.*\) is outside the triangulation"):
        s.evaluate(pts, [0, -1, 1, 2])


def test_eval_gradient_fd(disk_space):
    rng = np.random.default_rng(5)
    s = disk_space.spline(rng.standard_normal(disk_space.dimension))
    h = 1e-5
    count = 0
    while count < 50:
        x = rng.uniform(-0.7, 0.7, 2)
        if x @ x > 0.8:
            continue
        count += 1
        g = s.evaluate(x, order=1)[1][0]
        v = s.evaluate([x + (h, 0), x - (h, 0), x + (0, h), x - (0, h)], order=0)[0]
        fd = np.array([v[0] - v[1], v[2] - v[3]]) / (2 * h)
        assert np.abs(g - fd).max() < 1e-6 * max(1.0, np.abs(g).max())


def test_eval_batch_consistent(disk_space):
    rng = np.random.default_rng(6)
    s = disk_space.spline(rng.standard_normal(disk_space.dimension))
    t = 0
    tri = disk_space.mesh.vertices[disk_space.mesh.tri_verts[t]]
    pts = bb.barycentric_many(tri, tri).mean(axis=0, keepdims=True) @ tri
    pts = np.vstack([pts, tri.mean(axis=0)[None, :] * 0.9])
    vals, grads, hess = s.evaluate(pts, np.full(len(pts), t))
    d, c = tri_degree(disk_space, t), patch(s, t)
    for i, x in enumerate(pts):
        assert abs(vals[i] - eval_bb(d, c, tri, x, 0)) < 1e-12
        assert np.abs(grads[i] - eval_bb(d, c, tri, x, 1)).max() < 1e-10
        assert np.abs(hess[i] - eval_bb(d, c, tri, x, 2)).max() < 1e-8
    # and to a few eps of the Cartesian design matrices (at most 3.8 eps of
    # the largest entry, measured on every triangle of this mesh)
    B = bb.design_matrices(d, bb.barycentric_many(tri, pts))
    for got, want in zip((vals, grads, hess), apply_design(*derivative_matrices(d, tri, *B), c)):
        assert np.abs(got - want).max() <= 16 * np.finfo(float).eps * np.abs(want).max()


def test_quintic_reduction():
    # the 6 -> 5 reduction of the level transfer: each vertex keeps the
    # sextic's 2-jet, the middle coefficients are those of the interpolant
    # at the quintic's domain points, and raised quintics come back
    R = quintic_reduction()
    rng = np.random.default_rng(9)
    tri = np.array([[0.2, -0.1], [1.3, 0.4], [0.5, 1.1]])
    for _ in range(5):
        c6 = rng.standard_normal(bb.n_coeffs(6))
        c5 = R @ c6
        for x in tri:
            for order in range(3):
                assert np.abs(eval_bb(5, c5, tri, x, order=order)
                              - eval_bb(6, c6, tri, x, order=order)).max() < 1e-11
        lam = np.array(bb.multi_indices(5)) / 5
        interp = np.linalg.solve(bb.bernstein_matrix(5, lam),
                                 [eval_bb(6, c6, tri, x) for x in lam @ tri])
        middle = [bb.index_map(5)[g] for g in ((2, 2, 1), (2, 1, 2), (1, 2, 2))]
        assert np.abs(c5[middle] - interp[middle]).max() < 1e-12
    np.testing.assert_allclose(R @ bb.degree_raise_matrix(5, 6), np.eye(21), atol=1e-13)


# ---------------------------------------------------------------------------
# locality

def test_edge_dof_support_is_edge_pair(disk_space):
    mesh = disk_space.mesh
    for e, pos in owner_dofs(disk_space.mds, "edge").items():
        supp = basis_support(disk_space, pos)
        assert supp <= set(mesh.edge_tris[e].tolist())


def test_buffer_interior_dof_support(disk_space):
    mesh = disk_space.mesh
    for t, start in owner_dofs(disk_space.mds, "buffer").items():
        supp = basis_support(disk_space, start + 1)   # the (2,2,2) dof
        assert supp <= star(mesh, [t])


def test_all_supports_within_three_stars(disk_space):
    mesh = disk_space.mesh
    for lam in range(disk_space.dimension):
        supp = basis_support(disk_space, lam)
        for t in sorted(supp):
            assert supp <= star(mesh, [t], level=3)


# ---------------------------------------------------------------------------
# spline file IO

def test_spline_file_roundtrip(tmp_path, disk_space):
    rng = np.random.default_rng(7)
    s = disk_space.spline(rng.standard_normal(disk_space.dimension))
    path = tmp_path / "spline.json"
    sp.save_spline(s, path)
    s2 = sp.load_spline(path)
    # JSON writes floats exactly: the same dofs, and the same pieces
    np.testing.assert_array_equal(s2.dofs, s.dofs)
    assert len(s2.space.groups) == len(disk_space.groups)
    for g2, grp in zip(s2.space.groups, disk_space.groups):
        np.testing.assert_array_equal(s2.pieces(g2.Z, g2.cols), s.pieces(grp.Z, grp.cols))


def test_save_spline_refuses_a_non_finite_dof(tmp_path, disk_space):
    dofs = np.zeros(disk_space.dimension)
    dofs[[5, 9]] = -np.inf
    path = tmp_path / "spline.json"
    with pytest.raises(sp.SpaceError, match=r"^spline file: dof 5 is -inf, not a finite number$"):
        sp.save_spline(disk_space.spline(dofs), path)
    assert not path.exists()
