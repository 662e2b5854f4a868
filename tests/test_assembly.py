import collections
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps

from conicfem import assembly as asm
from conicfem import bernstein as bb
from conicfem.geometry import GeometryError
from conicfem.mesh import PIE
from conicfem.problems import (builtin_domain, disk_domain, disk_exact_solution,
                               disk_wheel_points, problem_g, wheel_mesh)
from conicfem.space import build_space

from _oracles import (assemble_per_triangle, disk_radial_integral, domain_area, domain_points,
                      error_norms_per_triangle, frame_gradient_maps, integrate, local_map,
                      pie_quadrature_scalar, slot_blocks, slot_values, sum_in_slot_order,
                      triangle_designs, triangle_maps, triangle_nodes)

EYE = asm.constant_matrix(np.eye(2))


def test_rule_weights_and_exactness():
    rule = asm.triangle_rule(16)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = rule.bary @ tri
    for a in range(17):
        for b in range(17 - a):
            approx = 0.5 * float(rule.weights @ (pts[:, 0] ** a * pts[:, 1] ** b))
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert abs(approx - exact) <= 1e-14 * max(1.0, 1.0 / exact) * exact * 10


def test_areas(disk_space2, ellipse_mesh2):
    from conicfem.space import build_space
    quad = asm.TriangleQuadrature(disk_space2)
    assert abs(domain_area(quad) - np.pi) < 1e-10 * np.pi
    equad = asm.TriangleQuadrature(build_space(ellipse_mesh2))
    assert abs(domain_area(equad) - np.pi * 0.4) < 1e-10 * np.pi * 0.4
    # second moment over the disk
    val = integrate(quad, lambda x: x[:, 0] ** 2)
    assert abs(val - np.pi / 4) < 1e-9 * np.pi / 4


def test_pie_quadrature_jacobians(disk_space):
    mesh = disk_space.mesh
    pies = np.flatnonzero(mesh.tri_kind == PIE)
    nodes, weights = asm.pie_quadrature(mesh, pies)
    assert nodes.shape == (len(pies), asm.PIE_ORDER ** 2, 2)
    assert weights.shape == (len(pies), asm.PIE_ORDER ** 2)
    assert np.all(weights > 0)
    with pytest.raises(asm.AssemblyError):
        asm.pie_quadrature(mesh, np.flatnonzero(mesh.tri_kind == "ordinary")[:1])


def test_pie_quadrature_is_bit_identical_to_scalar_rule(hierarchies, c2_space):
    for meshes in hierarchies.values():
        for mesh in meshes:
            pies = np.flatnonzero(mesh.tri_kind == PIE)
            nodes, weights = asm.pie_quadrature(mesh, pies)
            for i, t in enumerate(pies):
                want_nodes, want_weights = pie_quadrature_scalar(mesh, t)
                np.testing.assert_array_equal(nodes[i], want_nodes)
                np.testing.assert_array_equal(weights[i], want_weights)
    # the chunks of a space store the same rule
    nodes = triangle_nodes(asm.TriangleQuadrature(c2_space))
    for t in np.flatnonzero(c2_space.mesh.tri_kind == PIE):
        want_nodes, want_weights = pie_quadrature_scalar(c2_space.mesh, t)
        np.testing.assert_array_equal(nodes[t][0], want_nodes)
        np.testing.assert_array_equal(nodes[t][1], want_weights)


def _first_scalar_failure(mesh, pies):
    for t in pies:
        try:
            pie_quadrature_scalar(mesh, t)
        except (asm.AssemblyError, GeometryError) as exc:
            return type(exc), str(exc)
    return None


def test_pie_quadrature_errors_name_the_first_failing_pie(disk_mesh2, c2dom, wheels):
    # interior vertices moved at random: the blending Jacobian changes sign
    # on several pies at once, and on the disk wheel with its last arc
    # replaced by a hyperbola branch (fails mesh validation) rays miss
    dom, verts = wheels["hyperbola-bite"][:2]
    hyperbola = dataclasses.replace(wheel_mesh(disk_domain(), *disk_wheel_points()),
                                    domain=dom, vertices=verts.copy())
    rng = np.random.default_rng(7)
    seen = set()
    for base in (disk_mesh2, c2dom[1], hyperbola):
        pies = np.flatnonzero(base.tri_kind == PIE)
        inner = ~base.vertex_is_boundary
        scale = np.abs(base.vertices).max()
        for size in np.repeat([0.0, 0.1, 0.2, 0.4], 8):
            moved = base.vertices.copy()
            moved[inner] += size * scale * rng.standard_normal((inner.sum(), 2))
            mesh = dataclasses.replace(base, vertices=moved)
            want = _first_scalar_failure(mesh, pies)
            if want is None:
                nodes, weights = asm.pie_quadrature(mesh, pies)
                for i, t in enumerate(pies):
                    want_nodes, want_weights = pie_quadrature_scalar(mesh, t)
                    np.testing.assert_array_equal(nodes[i], want_nodes)
                    np.testing.assert_array_equal(weights[i], want_weights)
            else:
                with pytest.raises(want[0]) as err:
                    asm.pie_quadrature(mesh, pies)
                assert str(err.value) == want[1]
            seen.add(want and want[0])
    assert seen == {None, asm.AssemblyError, GeometryError}


def test_mass_matrix_spd_and_symmetry(disk_space):
    # the weak form has no mass term: the A = I stiffness matrix, SPD on
    # the space of zero boundary values
    quad = asm.TriangleQuadrature(disk_space)
    M = asm.assemble(EYE, quad).toarray()
    assert np.abs(M - M.T).max() < 1e-12 * np.abs(M).max()
    assert np.linalg.eigvalsh(M).min() > 0


def test_stiffness_symmetric_for_symmetric_A(disk_space):
    quad = asm.TriangleQuadrature(disk_space)
    def A(chunk):
        pts = domain_points(chunk.degree - 2, chunk.coords)
        out = np.empty(chunk.coefficient_shape)
        out[..., 0, 0] = 1.0 + pts[..., 0] ** 2
        out[..., 1, 1] = 2.0 + pts[..., 1] ** 2
        out[..., 0, 1] = out[..., 1, 0] = 0.3 * pts[..., 0] * pts[..., 1]
        return out
    K = asm.assemble(A, quad).toarray()
    assert np.abs(K - K.T).max() < 1e-12 * np.abs(K).max()


def test_solve_sparse_identity_and_mass_roundtrip(disk_space, tight_cg):
    import scipy.sparse as sps
    n = disk_space.dimension
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    res = asm.solve_sparse(asm.SparseSystem(sps.identity(n, format="csr"), b))
    assert np.allclose(res.dofs, b)
    quad = asm.TriangleQuadrature(disk_space)
    K = asm.assemble(EYE, quad)
    x = rng.standard_normal(n)
    res = asm.solve_sparse(asm.SparseSystem(K, K @ x))
    assert np.abs(res.dofs - x).max() < 1e-10 * max(1.0, np.abs(x).max())
    assert res.rel_residual < 1e-10


def test_singular_solve_raises(disk_space):
    import scipy.sparse as sps
    n = disk_space.dimension
    A = sps.csr_matrix((n, n))
    with pytest.raises(asm.SolverError):
        asm.solve_sparse(asm.SparseSystem(A, np.ones(n)))


def test_singular_poisson_solve_raises_solver_error(disk_space):
    # the Poisson pattern (structurally nonsingular) with one dof's row and
    # column set to explicit zeros
    n = disk_space.dimension
    quad = asm.TriangleQuadrature(disk_space)
    K = asm.assemble(EYE, quad)
    coo = K.tocoo()
    coo.data[(coo.row == n // 2) | (coo.col == n // 2)] = 0.0
    A = coo.tocsr()
    assert A.nnz == K.nnz
    with pytest.raises(asm.SolverError, match="singular"):
        asm.solve_sparse(asm.SparseSystem(A, np.ones(n)))


@pytest.mark.parametrize("scale, message", [(1e-100, "residual"),
                                            (1e-160, "non-finite")])
def test_frozen_resolve_of_ill_conditioned_system_raises(disk_space, scale, message,
                                                         tight_cg):
    # the Poisson matrix with one dof's row and column scaled down: the
    # factors solve a right-hand side that does not reach that dof, and a
    # re-solve with them that does runs the same checks and fails
    import scipy.sparse as sps
    n = disk_space.dimension
    quad = asm.TriangleQuadrature(disk_space)
    K = asm.assemble(EYE, quad)
    d = np.ones(n)
    d[n // 2] = scale
    A = (sps.diags(d) @ K @ sps.diags(d)).tocsr()
    first = asm.solve_sparse(asm.SparseSystem(A, np.eye(n)[0]))
    assert first.rel_residual < 1e-12
    with np.errstate(all="ignore"), pytest.raises(asm.SolverError, match=message):
        first.factors.solve(np.ones(n))


def test_frozen_resolve_matches_a_fresh_solve(disk_space, tight_cg):
    quad = asm.TriangleQuadrature(disk_space)
    system = asm.SparseSystem(asm.assemble(EYE, quad),
                              asm.assemble_rhs(asm.pointwise(lambda x: np.ones(len(x))), quad))
    first = asm.solve_sparse(system)
    b = np.random.default_rng(3).standard_normal(disk_space.dimension)
    again = first.factors.solve(b)
    fresh = asm.solve_sparse(asm.SparseSystem(system.matrix, b))
    np.testing.assert_array_equal(again.dofs, fresh.dofs)
    assert again.rel_residual == fresh.rel_residual < 1e-12
    assert again.iterations == fresh.iterations
    assert again.factors is None      # only solve_sparse hands factors back


def test_solve_missing_the_cg_tolerance_raises_with_its_iterations(disk_space,
                                                                   monkeypatch, tight_cg):
    # one cap for every solve: a CG that stops short of KRYLOV_RTOL fails,
    # also on the factored matrix itself
    quad = asm.TriangleQuadrature(disk_space)
    factors = asm.Factors(asm.assemble(EYE, quad))
    b = np.random.default_rng(3).standard_normal(disk_space.dimension)
    monkeypatch.setattr(asm, "KRYLOV_MAXITER", 1)
    with pytest.raises(asm.SolverError) as info:
        factors.solve(b)
    assert info.value.iterations == 1


def _nearby_system(space):
    """(K, its Factors, a nearby matrix, a right-hand side) on the space:
    the Poisson matrix K, and K plus 1e-3 times an anisotropic one."""
    quad = asm.TriangleQuadrature(space)
    K = asm.assemble(EYE, quad)
    nearby = (K + 1e-3 * asm.assemble(asm.constant_matrix([[2.0, 1.0], [1.0, 3.0]]),
                                      quad)).tocsr()
    return K, asm.Factors(K), nearby, np.random.default_rng(4).standard_normal(space.dimension)


def test_solve_of_a_nearby_matrix_with_the_factors(disk_space, tight_cg):
    # the factors precondition CG on another matrix, whose residual the
    # result reports
    K, factors, nearby, b = _nearby_system(disk_space)
    res = factors.solve(b, nearby)
    assert 0 < res.iterations < asm.KRYLOV_MAXITER
    rel = np.linalg.norm(nearby @ res.dofs - b) / np.linalg.norm(b)
    assert res.rel_residual == rel < 1e-12
    assert factors.matrix is K


def test_solve_of_a_nearby_matrix_missing_the_cg_tolerance_raises(disk_space, monkeypatch,
                                                                  tight_cg):
    # CG on the nearby matrix needs 6 iterations for KRYLOV_RTOL; capped at
    # 4 its residual passes MAX_REL_RESIDUAL, so the third check fails
    _, factors, nearby, b = _nearby_system(disk_space)
    monkeypatch.setattr(asm, "KRYLOV_MAXITER", 4)
    with pytest.raises(asm.SolverError, match="CG missed the relative residual 1e-13 "
                                              "within 4 iterations") as info:
        factors.solve(b, nearby)
    assert info.value.iterations == 4


def test_solve_to_a_looser_tolerance(disk_space, monkeypatch):
    # KRYLOV_RTOL, read at each solve, is the relative residual CG is asked
    # for: a looser one stops sooner, within it, and a missed one is named
    # in the error
    K, factors, nearby, b = _nearby_system(disk_space)
    monkeypatch.setattr(asm, "KRYLOV_RTOL", 1e-13)
    tight = factors.solve(b, nearby)
    monkeypatch.setattr(asm, "KRYLOV_RTOL", 1e-7)
    loose = factors.solve(b, nearby)
    assert loose.iterations < tight.iterations
    assert tight.rel_residual < loose.rel_residual <= 1e-7
    assert asm.solve_sparse(asm.SparseSystem(K, b)).rel_residual <= 1e-7
    # its residual is 2.4e-9 after 3 iterations and 8.3e-13 after 4
    monkeypatch.setattr(asm, "KRYLOV_RTOL", 2.5e-11)
    monkeypatch.setattr(asm, "KRYLOV_MAXITER", 3)
    with pytest.raises(asm.SolverError, match="CG missed the relative residual 2.5e-11 "
                                              "within 3 iterations"):
        factors.solve(b, nearby)


def test_solve_converging_on_its_last_allowed_iteration_passes(disk_space, monkeypatch):
    # scipy's cg tests its residual before each iteration only, so capped
    # at the iterations it needs it reports the cap; the solve's relative
    # residual within KRYLOV_RTOL accepts it, with the uncapped result.
    # One iteration less still fails and carries its iterations
    _, factors, nearby, b = _nearby_system(disk_space)
    free = factors.solve(b, nearby)
    assert free.iterations == 3 and free.rel_residual <= asm.KRYLOV_RTOL
    monkeypatch.setattr(asm, "KRYLOV_MAXITER", free.iterations)
    capped = factors.solve(b, nearby)
    np.testing.assert_array_equal(capped.dofs, free.dofs)
    assert (capped.iterations, capped.rel_residual) == (free.iterations, free.rel_residual)
    monkeypatch.setattr(asm, "KRYLOV_MAXITER", free.iterations - 1)
    with pytest.raises(asm.SolverError) as info:
        factors.solve(b, nearby)
    assert info.value.iterations == free.iterations - 1


def test_factors_are_single_precision(disk_space):
    quad = asm.TriangleQuadrature(disk_space)
    factors = asm.Factors(asm.assemble(EYE, quad))
    assert factors.lu.L.dtype == factors.lu.U.dtype == np.float32
    assert factors.lu_mb * 2**20 == 4 * factors.lu_fill > 0


def test_solve_beyond_the_single_precision_range(disk_space, tight_cg):
    # the Poisson matrix scaled symmetrically by 1e20 has entries beyond
    # the float32 maximum; its equilibration is the unscaled one's
    import scipy.sparse as sps
    n = disk_space.dimension
    quad = asm.TriangleQuadrature(disk_space)
    K = asm.assemble(EYE, quad)
    b = np.random.default_rng(5).standard_normal(n)
    D = sps.diags(np.full(n, 1e20))
    A = (D @ K @ D).tocsr()
    assert np.abs(A.data).max() > np.finfo(np.float32).max
    for matrix in (K, A):
        res = asm.solve_sparse(asm.SparseSystem(matrix, b))
        assert np.all(np.isfinite(res.dofs)) and res.rel_residual < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_entry_raises(disk_space, bad, monkeypatch):
    # rejected before anything is scaled, cast or factored
    quad = asm.TriangleQuadrature(disk_space)
    K = asm.assemble(EYE, quad)
    K.data[K.nnz // 2] = bad

    def no_splu(*args, **kwargs):
        raise AssertionError("factored a non-finite matrix")

    monkeypatch.setattr(asm.spla, "splu", no_splu)
    with pytest.raises(asm.SolverError, match="non-finite entries"):
        asm.solve_sparse(asm.SparseSystem(K, np.ones(disk_space.dimension)))


def test_rhs_only_assembly_is_the_assembled_rhs(disk_space2, monkeypatch):
    # the right-hand side alone forms no derivative products and no matrix
    quad = asm.TriangleQuadrature(disk_space2)
    f = asm.pointwise(lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2)
    _, want = assemble_per_triangle(EYE, f, quad)
    monkeypatch.setattr(asm.sps, "coo_matrix", None)
    monkeypatch.setattr(asm, "stiffness_table", None)
    for ch in quad.chunks:
        monkeypatch.setattr(ch, "bb_stiffness", None)
    np.testing.assert_array_equal(asm.assemble_rhs(f, quad), want)


def _assert_same_bits(got, want):
    assert got.indptr.dtype == got.indices.dtype == want.indices.dtype == np.int32
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


@pytest.mark.parametrize("space_name", ["disk_space2", "c2_space", "lens_space"])
def test_assemble_sums_each_entry_in_slot_order(space_name, request):
    # each entry sums its slots' values from +0.0 in slot order (map groups
    # in order, their triangles in mesh order, each block row by row): the
    # int32 pattern of the blocks' (row, column) pairs, the data bit for bit
    quad = asm.TriangleQuadrature(request.getfixturevalue(space_name))
    n = quad.space.dimension
    for A in (EYE, _all_terms_problem()[0]):
        want = sum_in_slot_order(n, slot_blocks(quad, slot_values(A, quad)))
        _assert_same_bits(asm.assemble(A, quad), want)
    # any slot values: nonzeros, and zeros of both signs, so that some
    # entries sum only -0.0 terms; a sum from +0.0 reads +0.0 there
    rng = np.random.default_rng(5)
    size = quad.scatter.target.size
    for choices, p in (([-0.0, 0.0], [0.9, 0.1]), ([-0.0, 0.0, -1.5, 1e-300], None)):
        slot_vals = rng.choice(choices, size, p=p)
        got = quad.scatter.csr([slot_vals])
        _assert_same_bits(got, sum_in_slot_order(n, slot_blocks(quad, slot_vals)))
        not_minus_zero = ((slot_vals != 0.0) | ~np.signbit(slot_vals)).astype(float)
        only_minus_zero = sum_in_slot_order(n, slot_blocks(quad, not_minus_zero)).data == 0.0
        assert only_minus_zero.any()
        assert (got.data[only_minus_zero].view(np.uint64) == 0).all()


def test_assemble_streams_its_blocks_into_the_csr_data(hierarchies, monkeypatch):
    # assemble adds each chunk's blocks into the CSR data as they come, so
    # a call holds the data (8 bytes per entry) and one chunk's
    # temporaries, and no array of all the slot values (8 bytes per slot)
    # or an intp copy of target (8 more); one triangle per chunk keeps the
    # chunk's part small, so that such an array would show.  Measured at
    # c2-domain L2: a peak of 317 472 bytes, 8 nnz = 226 944, one chunk's
    # blocks at most 3 528 bytes, so 87 000 bytes of a pie's quadrature
    # products and index copies (the margin allows 131 072); 8 slots =
    # 458 688, so the peak is 0.69 of one slot-length array
    monkeypatch.setattr(asm, "CHUNK", 1)
    quad = asm.TriangleQuadrature(build_space(hierarchies["c2-domain"][1]))
    plan = quad.scatter
    assert plan.target.dtype == np.int32 and not plan.target.flags.writeable
    want = asm.assemble(EYE, quad)          # the product tables are built by now
    tracemalloc.start()
    try:
        got = asm.assemble(EYE, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_bits(got, want)
    nnz, slots = plan.indices.size, plan.target.size
    block = max(8 * ch.cols.size * ch.cols.shape[1] for ch in quad.chunks)
    assert peak < 8 * nnz + block + 2**17
    assert peak < 0.8 * 8 * slots
    # the slot values in any consecutive pieces, empty ones included, sum
    # to the same bits as in one piece
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(slots)
    cuts = rng.integers(0, slots, 40)
    pieces = np.split(vals, np.sort(np.r_[cuts, cuts[:1]]))
    _assert_same_bits(plan.csr(pieces), plan.csr([vals]))
    _assert_same_bits(plan.csr(p.reshape(-1, 1) for p in pieces), plan.csr([vals]))
    for short in ([vals[:-1]], [vals, vals[:1]]):
        with pytest.raises(asm.AssemblyError, match="do not fill"):
            plan.csr(short)


def test_scatter_plan_rejects_summed_slot_ids(disk_space, monkeypatch):
    # the plan finds each slot's entry by tocsr() of the slot ids marked
    # canonical, which keeps duplicates apart; a tocsr() that summed them
    # would merge slots, so the build refuses it
    class Summing(sps.coo_matrix):
        def tocsr(self, copy=False):
            self.has_canonical_format = False
            return super().tocsr(copy=copy)

    quad = asm.TriangleQuadrature(disk_space)
    monkeypatch.setattr(asm.sps, "coo_matrix", Summing)
    with pytest.raises(asm.AssemblyError, match="summed slot ids"):
        asm.ScatterPlan(quad)


def test_sums_do_not_depend_on_the_chunk_size(hierarchies, monkeypatch):
    # chunks of 7 triangles against the default: the load vector and the
    # norms bit for bit, the matrix's pattern and the plan's targets
    space = build_space(hierarchies["c2-domain"][1])
    default = asm.TriangleQuadrature(space)
    monkeypatch.setattr(asm, "CHUNK", 7)
    small = asm.TriangleQuadrature(space)
    assert len(small.chunks) > len(default.chunks)
    g = problem_g("c2-domain")
    f = asm.pointwise(lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2)
    u = space.spline(np.random.default_rng(8).standard_normal(space.dimension))
    want, got = (asm.assemble(_all_terms_problem()[0], q) for q in (default, small))
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(small.scatter.target, default.scatter.target)
    for fn in (lambda q: asm.assemble_rhs(f, q), lambda q: asm.error_norms(u, q),
               lambda q: asm.residual_norm(u, q, g)):
        np.testing.assert_array_equal(np.asarray(fn(small)).view(np.uint64),
                                      np.asarray(fn(default)).view(np.uint64))


def test_scatter_plan_is_built_once_per_quadrature(disk_mesh2, monkeypatch):
    # on the first assemble call, never by the level's set-up; its pattern
    # is shared by the matrices, read-only
    from conicfem import solver as sol
    built = []

    class Counted(asm.ScatterPlan):
        def __init__(self, quad):
            built.append(quad)
            super().__init__(quad)

    monkeypatch.setattr(asm, "ScatterPlan", Counted)
    ctx = sol.LevelContext(disk_mesh2)
    assert built == []
    first = asm.assemble(EYE, ctx.quad)
    again = asm.assemble(EYE, ctx.quad)
    assert built == [ctx.quad]
    assert np.shares_memory(first.indices, again.indices)
    assert np.shares_memory(first.indptr, again.indptr)
    assert not first.indices.flags.writeable and not first.indptr.flags.writeable
    assert first.data is not again.data
    np.testing.assert_array_equal(first.data, again.data)


def test_straight_chunks_hold_no_per_triangle_design_stacks(hierarchies):
    # no chunk holds a derivative stack: every chunk keeps (g, 2, 2)
    # frames and Bernstein matrices, the quadrature's shared (nq, nc) ones
    # of degrees 3-6 on straight triangles, its own (g, nq, nc) stacks of
    # degrees 4-6 on pies
    quad = asm.TriangleQuadrature(build_space(hierarchies["disk"][2]))
    mesh = quad.space.mesh
    assert sorted(quad.B) == [3, 4, 5, 6]
    straight = [ch for ch in quad.chunks if ch.B is quad.B]
    assert straight and len(straight) < len(quad.chunks)
    sizes = {bb.n_coeffs(d) for d in range(3, 7)}
    for ch in quad.chunks:
        g, nq = ch.weights.shape
        assert ch.M.shape == (g, 2, 2)
        assert not {"G", "H", "ref", "V"} & set(vars(ch))
        arrays = [a for v in vars(ch).values()
                  for a in (v.values() if isinstance(v, dict) else [v])
                  if isinstance(a, np.ndarray)]
        stacks = [a for a in arrays if a.ndim == 3 and a.shape[:2] == (g, nq)
                  and a.shape[2] in sizes]
        pies = mesh.tri_kind[ch.tris] == PIE
        if ch.B is quad.B:
            assert not pies.any() and stacks == []
        else:
            assert pies.all() and sorted(ch.B) == [4, 5, 6] and len(stacks) == 3
            assert all(ch.B[d].shape == (g, nq, bb.n_coeffs(d)) for d in ch.B)
    # nbytes counts the shared matrices once, not once per chunk
    every = sum(a.nbytes for ch in quad.chunks for a in ch.arrays())
    shared = sum(B.nbytes for B in quad.B.values())
    assert quad.nbytes == every - (len(straight) - 1) * shared
    # disk L3 (384 triangles, 32 pies) measures 3.1 MB; with the pies'
    # Cartesian V, G, H stacks it took 6.9 MB, and with the straight
    # chunks' G and H stacks 28.5 MB more
    assert quad.nbytes < 4 * 2**20


def test_symmetric_ordering_fills_less_than_colamd(disk_space2, tight_cg):
    import scipy.sparse.linalg as spla
    quad = asm.TriangleQuadrature(disk_space2)
    K = asm.assemble(EYE, quad)
    res = asm.solve_sparse(asm.SparseSystem(
        K, asm.assemble_rhs(asm.pointwise(lambda x: np.ones(len(x))), quad)))
    colamd = spla.splu(K.tocsc())
    # lu_fill is SuperLU's count of the factors' entries; with exact
    # supernodes none is padding, so it is the nonzeros of L and U, less
    # those that come out exactly 0.0 in float32, which L and U leave out
    # (43 920 against 43 918 here; relaxed supernodes stored 85 302)
    lu = res.factors.lu
    assert res.factors.lu_fill == lu.nnz
    assert 0 <= lu.nnz - (lu.L.nnz + lu.U.nnz) <= lu.nnz // 1000
    assert 0 < lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    assert res.rel_residual < 1e-12


def test_chunk_derivatives_difference_the_coefficients_once(disk_space, monkeypatch):
    # all orders at once equal the orders one at a time, bit for bit, and
    # difference each set of coefficients once per call: one frame_diff(d)
    # product for the gradient's coefficients, two frame_diff(d - 1)
    # products (of cx and of cy) for the Hessian's
    quad = asm.TriangleQuadrature(disk_space)
    pie = next(ch for ch in quad.chunks if ch.B is not quad.B)
    straight = next(ch for ch in quad.chunks if ch.B is quad.B)
    u = disk_space.spline(np.random.default_rng(5).standard_normal(disk_space.dimension))
    real, products = bb.frame_diff, collections.Counter()

    class Counted(np.ndarray):
        # frame_diff(d), and any view of it, counting the products it enters
        def __array_finalize__(self, obj):
            self.d = getattr(obj, "d", None)

        def __array_ufunc__(self, ufunc, method, *args, **kwargs):
            if ufunc is np.matmul:
                products[self.d] += 1
            return getattr(ufunc, method)(*(np.asarray(a) for a in args), **kwargs)

    def counted(d):
        D = real(d).view(Counted)
        D.d = d
        return D

    monkeypatch.setattr(bb, "frame_diff", counted)
    for ch in (pie, straight):
        C = u.pieces(ch.Z, ch.cols)
        products.clear()
        got = ch.derivatives(C)
        assert products == {ch.degree: 1, ch.degree - 1: 2}
        want = [f for order in (0, 1, 2) for f in ch.derivatives(C, orders=(order,))]
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)


def _all_terms_problem():
    # (A, f); A's BB coefficients are a function at the domain points that
    # also depends on the triangle index
    def A(chunk):
        pts, t = domain_points(chunk.degree - 2, chunk.coords), chunk.tris[:, None]
        out = np.empty(chunk.coefficient_shape)
        out[..., 0, 0] = 1.0 + pts[..., 0] ** 2
        out[..., 1, 1] = 2.0 + np.sin(pts[..., 1]) + 0.01 * t
        out[..., 0, 1] = out[..., 1, 0] = 0.3 * pts[..., 0] * pts[..., 1]
        return out

    return A, asm.pointwise(lambda x: np.sin(3.0 * x[:, 0]) * x[:, 1] - 0.5)


@pytest.mark.parametrize("space_name", ["c2_space", "disk_space2"])
def test_chunk_design_matrices_are_bit_identical_to_per_triangle_build(
        space_name, request):
    space = request.getfixturevalue(space_name)
    quad = asm.TriangleQuadrature(space)
    designs = triangle_designs(quad)
    maps = triangle_maps(space)
    seen = []
    for ch in quad.chunks:
        for i, t in enumerate(ch.tris):
            B, M = designs[t]
            np.testing.assert_array_equal(ch.M[i], M)
            got = [ch.B[ch.degree - s] for s in range(3)]
            if space.mesh.tri_kind[t] == PIE:   # stacked Bernstein matrices
                got = [A[i] for A in got]
            else:                               # the quadrature's shared ones
                assert ch.B is quad.B
            for a, b in zip(got, B, strict=True):
                np.testing.assert_array_equal(a, b)
            cols, piece, stored = maps[t]
            np.testing.assert_array_equal(ch.Z[i], piece)
            np.testing.assert_array_equal(ch.cols[i], cols)
            np.testing.assert_array_equal(local_map(space, t, stored=True)[1], stored)
        seen.extend(ch.tris)
    assert sorted(seen) == list(range(space.mesh.n_triangles))


@pytest.mark.parametrize("space_name", ["c2_space", "disk_space2"])
def test_assemble_is_bit_identical_to_per_triangle_loop(space_name, request):
    # c2_space has ordinary, buffer and pie triangles
    space = request.getfixturevalue(space_name)
    quad = asm.TriangleQuadrature(space)
    A, f = _all_terms_problem()
    got = asm.assemble(A, quad)
    matrix, rhs = assemble_per_triangle(A, f, quad)
    np.testing.assert_array_equal(got.indptr, matrix.indptr)
    np.testing.assert_array_equal(got.indices, matrix.indices)
    np.testing.assert_array_equal(got.data, matrix.data)
    np.testing.assert_array_equal(asm.assemble_rhs(f, quad), rhs)
    assert np.abs(rhs).max() > 0


@pytest.mark.parametrize("space_name", ["c2_space", "disk_space2"])
def test_stiffness_table_blocks_match_the_quadrature_sum(space_name, request):
    # each triangle's block in its Bernstein basis, pies included, against
    # the nodal sum sum_q sum_ij W_ij G_i^T G_j in extended precision,
    # G_i = B_{d-1} D_i, for the weights W of frame_weights of a random
    # symmetric coefficient field and of a random spline's cofactor.  On
    # straight triangles W holds BB coefficients, evaluated at the nodes
    # and weighted by the reference: w_q (B_{d-2} W_ij)[q].  Every term
    # W_ij[k] w_q B_{d-2}[q, k] B_{d-1}[q, m] D_i[m, a] B_{d-1}[q, n] D_j[n, b]
    # passes through at most N roundings on either route.  Straight: the
    # table route's two n1-term sums for G, their product and the 01 sum
    # (P of stiffness_table), w_q B_{d-2}, the nq-term sum of stiffness_table and
    # the 3 nk-term dot product with it, N = nq + 3 nk + 2 n1 + 3; the
    # reference's nk + 1 for the weights, then 2 n1 + nq + 4, fewer.  Pies:
    # the weighted Gram's nq + 1, then two 2 n1-term products with D,
    # N = nq + 4 n1 + 1.  So the error is below gamma_N times the sum of
    # the terms' absolute values, plus the same bound for the reference
    from conicfem import solver as sol
    space = request.getfixturevalue(space_name)
    quad = asm.TriangleQuadrature(space)
    rng = np.random.default_rng(6)

    def random_field(chunk):
        out = rng.standard_normal(chunk.coefficient_shape)
        out[..., 1, 0] = out[..., 0, 1]
        return out

    u = space.spline(rng.standard_normal(space.dimension))
    cofactor = sol.linearize_ma(u, lambda x: np.ones(len(x)), quad)[0]

    def gamma(n, dtype):
        u = np.finfo(dtype).eps / 2
        return n * u / (1 - n * u)

    ld = np.longdouble
    rule_w = quad.rule.weights.astype(ld)[:, None]
    for A in (random_field, cofactor):
        for ch in quad.chunks:
            d = ch.degree
            W = ch.frame_weights(np.asarray(A(ch)))
            L = ch.bb_stiffness(W)
            B1, B2 = ch.B[d - 1], ch.B[d - 2]
            straight = B1.ndim == 2
            nq, n1 = B1.shape[-2:]
            n = nq + 3 * B2.shape[-1] + 2 * n1 + 3 if straight else nq + 4 * n1 + 1
            eye = np.eye(bb.n_coeffs(d), dtype=ld)
            for i in range(len(ch.tris)):
                B1i = (B1 if straight else B1[i]).astype(ld)
                G = frame_gradient_maps(d, B1i, eye)
                Gabs = [np.abs(B1i) @ np.abs(Ds) for Ds in bb.frame_diff(d)]
                w, wabs = W[i].astype(ld), np.abs(W[i]).astype(ld)
                if straight:
                    w, wabs = (rule_w * (B2.astype(ld) @ x) for x in (w, wabs))
                want = np.zeros(L.shape[1:], dtype=ld)
                size = np.zeros(L.shape[1:], dtype=ld)
                for r, pairs in enumerate([[(0, 0)], [(0, 1), (1, 0)], [(1, 1)]]):
                    for a, b in pairs:
                        want += (w[:, r, None] * G[a]).T @ G[b]
                        size += (wabs[:, r, None] * Gabs[a]).T @ Gabs[b]
                bound = (gamma(n, float) + gamma(n, ld)) * size
                assert (np.abs(L[i] - want) <= bound).all()


def test_mis_shaped_coefficient_is_rejected(disk_space):
    # A is a table of BB coefficients of degree d - 2: a 3 x 3 constant,
    # a vector field and a nodal table are refused, naming both shapes
    quad = asm.TriangleQuadrature(disk_space)
    with pytest.raises(ValueError, match=r"2 x 2, not \(3, 3\)"):
        asm.constant_matrix(np.eye(3))
    with pytest.raises(ValueError, match="2 x 2"):
        asm.constant_matrix([1.0, 2.0])
    ch = quad.chunks[0]
    want = re.escape(str(ch.coefficient_shape))
    for field in (lambda chunk: np.ones(chunk.weights.shape + (2,)),
                  lambda chunk: np.tile(np.eye(2), chunk.weights.shape + (1, 1))):
        got = re.escape(str(field(ch).shape))
        with pytest.raises(asm.AssemblyError, match=f"shape {got} .* {want}"):
            asm.assemble(field, quad)
    assert ch.coefficient_shape == (len(ch.tris), bb.n_coeffs(ch.degree - 2), 2, 2)


def test_non_symmetric_coefficient_is_rejected(disk_space):
    # the blocks fold A01 and A10 together: a field with A01 != A10 at one
    # node of the last chunk raises instead of giving a matrix
    quad = asm.TriangleQuadrature(disk_space)
    A = _all_terms_problem()[0]

    def skewed(chunk):
        out = A(chunk)
        if chunk is quad.chunks[-1]:
            out[-1, -1, 0, 1] += 1e-12
        return out

    with pytest.raises(asm.AssemblyError, match="not symmetric"):
        asm.assemble(skewed, quad)
    assert asm.assemble(A, quad).nnz > 0


def test_poisson_reproduces_in_space_solution(disk_space2, tight_cg):
    quad = asm.TriangleQuadrature(disk_space2)
    rhs = asm.assemble_rhs(asm.pointwise(lambda x: 2.0 * np.ones(len(x))), quad)
    res = asm.solve_sparse(asm.SparseSystem(asm.assemble(EYE, quad), -rhs))
    u = disk_space2.spline(res.dofs)
    ref = (
        lambda x: 0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2 - 1.0),
        lambda x: x.copy(),
        lambda x: np.tile(np.eye(2), (len(x), 1, 1)),
    )
    errs = asm.error_norms(u, quad, ref=ref)
    assert errs[0] < 1e-10


def test_manufactured_solution_and_orthogonality(disk_space2, tight_cg):
    # u* = (1 - x^2 - y^2)^2 lies in the space; f = -laplace(u*) = 8 - 16 r^2
    quad = asm.TriangleQuadrature(disk_space2)
    system = asm.SparseSystem(asm.assemble(EYE, quad), asm.assemble_rhs(
        asm.pointwise(lambda x: 8.0 - 16.0 * (x[:, 0] ** 2 + x[:, 1] ** 2)), quad))
    res = asm.solve_sparse(asm.SparseSystem(system.matrix, system.rhs))
    u = disk_space2.spline(res.dofs)

    def val(x):
        return (1.0 - x[:, 0] ** 2 - x[:, 1] ** 2) ** 2

    def grad(x):
        w = 1.0 - x[:, 0] ** 2 - x[:, 1] ** 2
        return np.column_stack([-4.0 * x[:, 0] * w, -4.0 * x[:, 1] * w])

    def hess(x):
        w = 1.0 - x[:, 0] ** 2 - x[:, 1] ** 2
        h = np.empty((len(x), 2, 2))
        h[:, 0, 0] = -4.0 * w + 8.0 * x[:, 0] ** 2
        h[:, 1, 1] = -4.0 * w + 8.0 * x[:, 1] ** 2
        h[:, 0, 1] = h[:, 1, 0] = 8.0 * x[:, 0] * x[:, 1]
        return h

    errs = asm.error_norms(u, quad, ref=(val, grad, hess))
    assert errs[0] < 1e-9
    # Galerkin orthogonality: residual functional vanishes on every basis fn
    resid = system.matrix @ res.dofs - system.rhs
    assert np.abs(resid).max() < 1e-9 * max(1.0, np.abs(system.rhs).max())


def test_dense_bilinear_form_agreement():
    # smallest valid wheel (4 boundary vertices) against per-pair quadrature
    dom, _ = builtin_domain("disk")
    pts = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    mesh = wheel_mesh(dom, pts, [0, 1, 2, 3], shrink=0.5)
    space = build_space(mesh)
    quad = asm.TriangleQuadrature(space)
    K = asm.assemble(EYE, quad).toarray()
    rng = np.random.default_rng(1)
    nodes = triangle_nodes(quad)
    eye = np.eye(space.dimension)
    idx = rng.integers(0, space.dimension, size=(25, 2))
    splines = {}
    for lam in np.unique(idx):
        splines[lam] = space.spline(eye[lam])
    for lam, mu in idx:
        s_l, s_m = splines[lam], splines[mu]
        total = 0.0
        for t in range(mesh.n_triangles):
            pts, w = nodes[t]
            at = np.full(len(pts), t)
            _, gl, _ = s_l.evaluate(pts, at, order=1)
            _, gm, _ = s_m.evaluate(pts, at, order=1)
            total += float(w @ (gl[:, 0] * gm[:, 0] + gl[:, 1] * gm[:, 1]))
        scale = max(np.abs(K).max(), 1e-12)
        assert abs(K[lam, mu] - total) < 1e-10 * scale


def test_error_norms_self_is_zero(disk_space):
    rng = np.random.default_rng(2)
    s = disk_space.spline(rng.standard_normal(disk_space.dimension))
    quad = asm.TriangleQuadrature(disk_space)
    # s from the chunks' design data against s evaluated triangle by
    # triangle through its own pieces
    stored = {}
    for ch in quad.chunks:
        v, gx, gy, hxx, hxy, hyy = ch.derivatives(s.pieces(ch.Z, ch.cols))
        grads = np.stack([gx, gy], axis=-1)
        hess = np.stack([np.stack([hxx, hxy], axis=-1),
                         np.stack([hxy, hyy], axis=-1)], axis=-2)
        for i, t in enumerate(ch.tris):
            stored[t] = (v[i], grads[i], hess[i])
    errs = error_norms_per_triangle(s, quad, lambda t, pts: stored[t])
    assert max(errs) < 1e-12
    zero = lambda t, pts: (0.0, 0.0, 0.0)
    np.testing.assert_allclose(asm.error_norms(s, quad),
                               error_norms_per_triangle(s, quad, zero), rtol=1e-12)


def test_zero_spline_vs_exact_matches_radial_oracle(disk_space2):
    quad = asm.TriangleQuadrature(disk_space2)
    zero = disk_space2.spline(np.zeros(disk_space2.dimension))
    exact = disk_exact_solution()
    l2, h1, h2 = asm.error_norms(zero, quad, ref=exact)
    c = np.exp(0.5)
    l2_ref = np.sqrt(disk_radial_integral(lambda r: (np.exp(0.5 * r**2) - c) ** 2))
    h1_ref = np.sqrt(l2_ref**2 + disk_radial_integral(lambda r: np.exp(r**2) * r**2))
    h2_ref = np.sqrt(h1_ref**2 + disk_radial_integral(
        lambda r: np.exp(r**2) * (2.0 + 2.0 * r**2 + r**4)))
    assert abs(l2 - l2_ref) < 1e-8 * l2_ref
    assert abs(h1 - h1_ref) < 1e-8 * h1_ref
    assert abs(h2 - h2_ref) < 1e-8 * h2_ref


def test_residual_norm_cases(disk_space2, tight_cg):
    quad = asm.TriangleQuadrature(disk_space2)
    # det(Hessian) of the in-space paraboloid (r^2-1)/2 is exactly 1
    rhs = asm.assemble_rhs(asm.pointwise(lambda x: 2.0 * np.ones(len(x))), quad)
    res = asm.solve_sparse(asm.SparseSystem(asm.assemble(EYE, quad), -rhs))
    u = disk_space2.spline(res.dofs)
    assert asm.residual_norm(u, quad, lambda x: np.ones(len(x))) < 1e-10
    zero = disk_space2.spline(np.zeros(disk_space2.dimension))
    assert asm.residual_norm(zero, quad, lambda x: np.zeros(len(x))) == 0.0
