import itertools
import logging
import weakref

import numpy as np
import pytest

from conicfem import assembly as asm
from conicfem import bernstein as bb
from conicfem import mesh as msh
from conicfem import solver as sol
from conicfem.mesh import BUFFER, ORDINARY, PIE
from conicfem.mesh import refine_uniform
from conicfem.problems import (PROBLEM_IDS, builtin_domain, builtin_problem,
                               disk_exact_solution, problem_g)
from conicfem.space import SplineFunction, SplineSpace, build_space

from _oracles import (assemble_cartesian, coefficients_at_nodes,
                      corner_dofs_by_gradient, error_norms_per_triangle, eval_bb,
                      linearize_ma_at_nodes, linearize_ma_per_triangle, owner_dofs,
                      run_level_full_steps, stored_quadrature)


@pytest.fixture(scope="module")
def disk_ctx(disk_mesh):
    return sol.LevelContext(disk_mesh)


@pytest.fixture(scope="module")
def disk_ctx2(disk_mesh2):
    return sol.LevelContext(disk_mesh2)


@pytest.fixture(scope="module")
def c2_ctx(c2_space):
    return sol.LevelContext(c2_space.mesh)


@pytest.fixture(scope="module")
def disk_problem(disk):
    dom, mesh = disk
    return sol.MongeAmpereProblem(dom, mesh, problem_g("disk"),
                                  exact=disk_exact_solution(), name="disk")


def test_cofactor_directional_derivative_exact():
    # d/dt det(H + tV) at t=0 equals tr(cof(H) V), exactly for 2x2
    rng = np.random.default_rng(0)
    for _ in range(100):
        h11, h12, h22 = rng.standard_normal(3)
        v11, v12, v22 = rng.standard_normal(3)
        H = np.array([[h11, h12], [h12, h22]])
        V = np.array([[v11, v12], [v12, v22]])
        cof = np.array([[h22, -h12], [-h12, h11]])
        lhs = (np.linalg.det(H + 1.0 * V) - np.linalg.det(H)
               - np.linalg.det(V))
        rhs = float(np.trace(cof @ V))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_frechet_finite_difference_on_patches():
    # unit-normalized Hessians: the FD remainder is exactly t*det(Hv)
    rng = np.random.default_rng(1)
    tri = np.array([[0.1, -0.2], [1.2, 0.3], [0.4, 1.1]])
    t = 1e-6
    for _ in range(50):
        cu = rng.standard_normal(bb.n_coeffs(5))
        cv = rng.standard_normal(bb.n_coeffs(5))
        x = bb.barycentric_many(tri, tri).mean(axis=0) @ tri
        x = x + rng.uniform(-0.05, 0.05, 2)
        Hu = eval_bb(5, cu, tri, x, order=2)
        Hv = eval_bb(5, cv, tri, x, order=2)
        Hu = Hu / np.linalg.norm(Hu)
        Hv = Hv / np.linalg.norm(Hv)
        cof = np.array([[Hu[1, 1], -Hu[0, 1]], [-Hu[0, 1], Hu[0, 0]]])
        exact_dir = float(np.trace(cof @ Hv))
        fd = (np.linalg.det(Hu + t * Hv) - np.linalg.det(Hu)) / t
        if abs(exact_dir) < 1e-2:
            continue
        assert abs(fd - exact_dir) / abs(exact_dir) < 1e-4


def test_frechet_first_order_in_t():
    # the remainder of the linearization is t*det(Hv): halving t halves it
    rng = np.random.default_rng(3)
    Hu = np.array([[2.0, 0.3], [0.3, 1.5]])   # convex quadratic
    cv = rng.standard_normal(bb.n_coeffs(5))
    tri = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 1.0]])
    x = np.array([0.4, 0.3])
    Hv = eval_bb(5, cv, tri, x, order=2)
    cof = np.array([[Hu[1, 1], -Hu[0, 1]], [-Hu[0, 1], Hu[0, 0]]])
    exact = float(np.trace(cof @ Hv))
    errs = []
    for t in (1e-4, 1e-5, 1e-6):
        fd = (np.linalg.det(Hu + t * Hv) - np.linalg.det(Hu)) / t
        errs.append(abs(fd - exact))
    assert errs[0] > errs[1] > errs[2]
    assert 5.0 < errs[0] / errs[1] < 20.0   # first order in t


def test_linearize_ma_on_paraboloid(disk_ctx):
    # Hessian of the in-space paraboloid is I: cofactor I, residual 1 - g
    u = sol.poisson_initial_guess(disk_ctx, lambda x: np.ones(len(x)))
    A, f, eigmin = sol.linearize_ma(u, lambda x: np.ones(len(x)), disk_ctx.quad)
    for ch in disk_ctx.quad.chunks:
        # the discrete paraboloid matches (r^2-1)/2 up to the curved-panel
        # quadrature perturbation of the level-1 stiffness entries
        assert np.abs(A(ch) - np.eye(2)).max() < 1e-6
        assert np.abs(f(ch)).max() < 1e-6
    assert abs(eigmin - 1.0) < 1e-6


@pytest.mark.parametrize("ctx_name", ["c2_ctx", "disk_ctx2"])
def test_linearize_ma_is_bit_identical_to_per_triangle_loop(ctx_name, request):
    # c2 has ordinary, buffer and pie triangles
    ctx = request.getfixturevalue(ctx_name)
    g = problem_g("c2-domain" if ctx_name == "c2_ctx" else "disk")
    rng = np.random.default_rng(4)
    u = ctx.space.spline(rng.standard_normal(ctx.space.dimension))
    A_field, f_field, eigmin = sol.linearize_ma(u, g, ctx.quad)
    cof_tab, res_tab, want_eigmin = linearize_ma_per_triangle(u, g, ctx.quad)
    assert eigmin == want_eigmin
    for ch in ctx.quad.chunks:
        A, f = A_field(ch), f_field(ch)
        for i, t in enumerate(ch.tris):
            np.testing.assert_array_equal(A[i], cof_tab[t])
            np.testing.assert_array_equal(f[i], res_tab[t])


@pytest.mark.parametrize("name", ["disk", "c2-domain"])
def test_reference_quadrature_matches_stored_derivatives(name, hierarchies):
    # the chunks' frames and differenced coefficients against the
    # Cartesian G, H stacks they replace (stored_quadrature, every chunk,
    # pies included, with the cofactor tabulated at the nodes by
    # linearize_ma_at_nodes), at L3 on a random spline; differences are in
    # units of eps relative to the largest entry (measured at most: G and
    # H 3.5, cofactor 2.2 with its BB coefficients evaluated at the nodes,
    # residual 11.0, matrix 6.2 against the Cartesian assembly of
    # assemble_cartesian, rhs 5.9; eigmin 2 ulps)
    eps = np.finfo(float).eps
    quad = asm.TriangleQuadrature(build_space(hierarchies[name][2]))
    old = stored_quadrature(quad)
    for ch, st in zip(quad.chunks, old.chunks):
        d = ch.degree
        G0, G1 = (ch.B[d - 1] @ Ds for Ds in bb.frame_diff(d))
        (D0, D1), (E0, E1) = bb.frame_diff(d), bb.frame_diff(d - 1)
        H00, H01, H11 = (ch.B[d - 2] @ (E @ D) for E, D in ((E0, D0), (E1, D0), (E1, D1)))
        m = ch.M[:, :, :, None, None]
        rebuilt = [m[:, 0, 0] * G0 + m[:, 0, 1] * G1, m[:, 1, 0] * G0 + m[:, 1, 1] * G1]
        for i, j in ((0, 0), (1, 0), (1, 1)):
            rebuilt.append(m[:, i, 0] * m[:, j, 0] * H00 + m[:, i, 1] * m[:, j, 1] * H11
                           + (m[:, i, 0] * m[:, j, 1] + m[:, i, 1] * m[:, j, 0]) * H01)
        for got, want in zip(rebuilt, st.G + st.H, strict=True):
            scale = np.abs(want).max(axis=(1, 2), keepdims=True)
            assert (np.abs(got - want) <= 16 * eps * scale).all()
    g = problem_g(name)
    rng = np.random.default_rng(4)
    u = quad.space.spline(rng.standard_normal(quad.space.dimension))
    *new_fields, new_eigmin = sol.linearize_ma(u, g, quad)
    *old_fields, old_eigmin = linearize_ma_at_nodes(u, g, old)
    nodal = [lambda ch: coefficients_at_nodes(ch, new_fields[0](ch)), new_fields[1]]
    for new_field, old_field, bound in zip(nodal, old_fields, (16, 64)):
        new_tab = [new_field(ch) for ch in quad.chunks]
        old_tab = [old_field(ch) for ch in old.chunks]
        scale = max(np.abs(t).max() for t in old_tab)
        assert max(np.abs(a - b).max() for a, b in zip(new_tab, old_tab)) <= bound * eps * scale
    assert abs(new_eigmin - old_eigmin) <= 8 * np.spacing(abs(old_eigmin))
    new_matrix = asm.assemble(new_fields[0], quad)
    old_matrix = assemble_cartesian(old_fields[0], old)
    np.testing.assert_array_equal(new_matrix.indices, old_matrix.indices)
    np.testing.assert_array_equal(new_matrix.indptr, old_matrix.indptr)
    for got, want, bound in ((new_matrix.data, old_matrix.data, 16),
                             (asm.assemble_rhs(new_fields[1], quad),
                              asm.assemble_rhs(old_fields[1], old), 64)):
        assert np.abs(got - want).max() <= bound * eps * np.abs(want).max()
    # the norms read values, gradients and Hessians through the chunks
    np.testing.assert_allclose(asm.error_norms(u, quad), asm.error_norms(u, old),
                               rtol=16 * eps)
    np.testing.assert_allclose(asm.residual_norm(u, quad, g),
                               asm.residual_norm(u, old, g), rtol=16 * eps)


def test_ellipticity_monitor_flags_indefinite(disk_ctx):
    rng = np.random.default_rng(2)
    u = disk_ctx.space.spline(rng.standard_normal(disk_ctx.space.dimension))
    _, _, eigmin = sol.linearize_ma(u, lambda x: np.ones(len(x)), disk_ctx.quad)
    assert eigmin < 0  # random splines are nowhere near convex


def test_poisson_initial_guess_cases(disk_ctx, disk_problem):
    # g = 1: closed-form solution (x^2 + y^2 - 1)/2
    u = sol.poisson_initial_guess(disk_ctx, lambda x: np.ones(len(x)))
    ref = (
        lambda x: 0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2 - 1.0),
        lambda x: x.copy(),
        lambda x: np.tile(np.eye(2), (len(x), 1, 1)),
    )
    errs = asm.error_norms(u, disk_ctx.quad, ref=ref)
    assert errs[0] < 1e-10
    # g = 0 gives the zero function
    u0 = sol.poisson_initial_guess(disk_ctx, lambda x: np.zeros(len(x)))
    assert asm.l2_norm(u0, disk_ctx.quad) < 1e-12
    # the real initial guess lands near the reference magnitudes
    ui = sol.poisson_initial_guess(disk_ctx, disk_problem.g)
    errs = asm.error_norms(ui, disk_ctx.quad, ref=disk_problem.exact)
    for got, ref_v in zip(errs, (1.04e-2, 3.20e-2, 1.85e-1)):
        assert ref_v / 3 < got < ref_v * 3


def test_newton_fixed_point_and_quadratic_decay(disk_ctx, disk_problem):
    u0 = sol.poisson_initial_guess(disk_ctx, disk_problem.g)
    state, eigmin = sol.run_level(disk_ctx, disk_problem.g, u0)
    assert not state.diverged
    assert state.iterations <= 3
    # quadratic decay once small, down to the roundoff floor that stops
    # run_level
    floor = 100.0 * np.finfo(float).eps * asm.l2_norm(state.spline, disk_ctx.quad)
    norms = state.update_norms
    for a, b in zip(norms, norms[1:]):
        if a < 1e-3:
            assert b <= max(10.0 * a * a, floor)
    # one more step from the fixed point barely moves
    _, n = sol.newton_step(disk_ctx, state.spline,
                           sol.newton_rhs(disk_ctx, state.spline, disk_problem.g),
                           sol.NewtonSolves())
    assert n < 5e-14
    # defining equations: the residual functional vanishes on all basis fns
    _, f, _ = sol.linearize_ma(state.spline, disk_problem.g, disk_ctx.quad)
    assert np.abs(asm.assemble_rhs(f, disk_ctx.quad)).max() < 1e-9


def test_first_correction_below_the_threshold_stops_with_m_1(disk_ctx, disk_problem,
                                                             monkeypatch):
    # a real correction below the threshold stops the level at once; when
    # it is the first one, m counts it (m = 1) and no frozen step runs
    monkeypatch.setattr(sol, "STOP_MARGIN", 1e300)
    u0 = sol.poisson_initial_guess(disk_ctx, disk_problem.g)
    state, _ = sol.run_level(disk_ctx, disk_problem.g, u0)
    assert state.iterations == 1 and not state.diverged
    assert len(state.update_norms) == 1
    assert state.solver["frozen_solves"] == 0


def test_step_cap_reports_divergence(c2dom, monkeypatch):
    # c2-domain L1 takes m = 4; capped at one real step the level stops
    # unconverged
    monkeypatch.setattr(sol, "MAX_STEPS", 1)
    problem = sol.MongeAmpereProblem(*c2dom, problem_g("c2-domain"))
    (rep,), _ = sol.multilevel_run(problem, 1)
    assert rep.diverged and rep.iterations == 1
    assert len(rep.update_norms) == 1 and rep.solver["stop_ratio"] > 1.0


def test_four_growing_corrections_report_divergence(disk_ctx, disk_problem, monkeypatch):
    # corrections of L2 norm 1, 2, 3, ... that leave the iterate as it is:
    # the real steps read 1, 3, 5, 7 (the frozen ones 2, 4, 6), so the
    # fourth real step stops the level unconverged with m = 4
    growing = itertools.count(1.0)
    monkeypatch.setattr(sol, "_corrected", lambda ctx, u, dofs: (u, next(growing)))
    u0 = sol.poisson_initial_guess(disk_ctx, disk_problem.g)
    state, _ = sol.run_level(disk_ctx, disk_problem.g, u0)
    assert state.diverged and state.iterations == 4
    assert state.update_norms == [1.0, 3.0, 5.0, 7.0]


def test_newton_counts_do_not_depend_on_the_scale_of_g(disk):
    # g scaled by c^2 scales u by c; the stop rule is relative to |u|, so
    # disk L1-2 takes the same steps with g * 1e-8 as with g
    dom, mesh = disk
    g = problem_g("disk")
    runs = [sol.multilevel_run(sol.MongeAmpereProblem(dom, mesh, lambda x, c=c: c * g(x)), 2)[0]
            for c in (1.0, 1e-8)]
    steps = [[(r.dimension, r.iterations) for r in reports] for reports in runs]
    assert steps[0] == steps[1] == [(134, 3), (478, 2)]


def test_transfer_guess_zero_and_smooth(disk_ctx, disk_mesh2):
    fine_ctx = sol.LevelContext(disk_mesh2)
    zero = disk_ctx.space.zero()
    tz = sol.transfer_guess(sol.coarse_on_fine(zero, fine_ctx.space), fine_ctx.space)
    assert asm.l2_norm(tz, fine_ctx.quad) == 0.0
    # a globally smooth in-space function transfers exactly
    u = sol.poisson_initial_guess(disk_ctx, lambda x: np.ones(len(x)))
    tu = sol.transfer_guess(sol.coarse_on_fine(u, fine_ctx.space), fine_ctx.space)
    ref_batch = lambda t, pts: u.evaluate(pts, np.full(len(pts), disk_mesh2.parents[t]))
    diff = error_norms_per_triangle(tu, fine_ctx.quad, ref_batch)
    assert diff[0] < 1e-10


def test_transfer_makes_newton_fast(disk_ctx, disk_mesh2, disk_problem):
    u0 = sol.poisson_initial_guess(disk_ctx, disk_problem.g)
    state, _ = sol.run_level(disk_ctx, disk_problem.g, u0)
    fine_ctx = sol.LevelContext(disk_mesh2)
    guess = sol.transfer_guess(sol.coarse_on_fine(state.spline, fine_ctx.space), fine_ctx.space)
    state2, _ = sol.run_level(fine_ctx, disk_problem.g, guess)
    assert state2.iterations <= 2
    # first fine correction is at the coarse-error scale, far below the guess
    assert state2.update_norms[0] < 1e-4


@pytest.mark.parametrize("space_name", ["disk_space", "c2_space"])
def test_transfer_corner_dofs_follow_the_coarse_gradient(space_name, request):
    # read as the coarse factor at the vertex times the ratio of the pie
    # scales, they equal the projection of the coarse gradient on the
    # fine pie's normalized conic gradient
    space = request.getfixturevalue(space_name)
    fine = build_space(refine_uniform(space.mesh))
    assert owner_dofs(fine.mds, "tangent-corner")
    rng = np.random.default_rng(6)
    u = space.spline(rng.standard_normal(space.dimension))
    got = sol.transfer_guess(sol.coarse_on_fine(u, fine), fine).dofs
    want = corner_dofs_by_gradient(u, fine)
    scale = max(abs(w) for w in want.values())
    for pos, w in want.items():
        assert abs(got[pos] - w) <= 1e-12 * scale


def test_transfer_needs_parent_triangles(disk_ctx):
    with pytest.raises(ValueError, match="parent triangles"):
        sol.coarse_on_fine(disk_ctx.space.zero(), disk_ctx.space)


def test_transfer_needs_pies_refined_from_pies(disk_ctx, disk_mesh2):
    # disk L2 rebuilt with its first pie's parent an ordinary triangle
    parents = disk_mesh2.parents.copy()
    parents[np.flatnonzero(disk_mesh2.tri_kind == PIE)[0]] = np.flatnonzero(
        disk_ctx.mesh.tri_kind == ORDINARY)[0]
    data = msh.mesh_to_dict(disk_mesh2)
    fine = msh.classify_and_validate(disk_mesh2.domain, disk_mesh2.vertices, data["triangles"],
                                     data["boundary"], level=2, parents=parents)
    with pytest.raises(ValueError, match="pie triangle refined from a non-pie parent"):
        sol.coarse_on_fine(disk_ctx.space.zero(), build_space(fine))


def test_eps_norms_from_coefficients_match_evaluation(disk_ctx, disk_ctx2,
                                                      disk_problem):
    g = disk_problem.g
    u1, _ = sol.run_level(disk_ctx, g, sol.poisson_initial_guess(disk_ctx, g))
    u1 = u1.spline
    coarse = sol.coarse_on_fine(u1, disk_ctx2.space)
    u2, _ = sol.run_level(disk_ctx2, g, sol.transfer_guess(coarse, disk_ctx2.space))
    u2 = u2.spline
    mesh2, mesh1 = disk_ctx2.mesh, disk_ctx.mesh
    # buffer parents with ordinary children: compared at the parent's degree
    assert any(mesh1.tri_kind[mesh2.parents[t]] == BUFFER
               and mesh2.tri_kind[t] == ORDINARY
               and coarse.degree[t] == 6 for t in range(mesh2.n_triangles))
    got = asm.error_norms(u2, disk_ctx2.quad, coarse=coarse)
    want = error_norms_per_triangle(
        u2, disk_ctx2.quad,
        lambda t, pts: u1.evaluate(pts, np.full(len(pts), mesh2.parents[t])))
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_transfer_and_eps_norms_build_no_design_matrices(disk_problem,
                                                         monkeypatch):
    # the coarse spline is re-expanded once per level pair, never evaluated
    # through design matrices at fine quadrature points or located at points
    depth, calls = [0], {"inside": 0, "all": 0}
    real = bb.design_matrices

    def counting(*args, **kwargs):
        calls["all"] += 1
        calls["inside"] += depth[0] > 0
        return real(*args, **kwargs)

    def watched(fn):
        def run(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return run

    def point_query(*args, **kwargs):
        raise AssertionError("point query in the level transfer")

    monkeypatch.setattr(bb, "design_matrices", counting)
    monkeypatch.setattr(SplineFunction, "evaluate", point_query)
    monkeypatch.setattr(SplineSpace, "locate", point_query)
    for name in ("coarse_on_fine", "transfer_guess"):
        monkeypatch.setattr(sol, name, watched(getattr(sol, name)))
    monkeypatch.setattr(asm, "error_norms", watched(asm.error_norms))
    reports, _ = sol.multilevel_run(disk_problem, 2)
    assert reports[0].eps_errors is not None
    assert calls["all"] > 0          # pie quadrature still uses them
    assert calls["inside"] == 0


def test_level_timings(disk_problem):
    reports, _ = sol.multilevel_run(disk_problem, 2)
    for rep in reports:
        assert set(rep.timings) == {"refine", "space", "quad", "transfer",
                                    "newton", "norms"}
        assert all(v >= 0.0 for v in rep.timings.values())
    assert reports[0].timings["refine"] == 0.0
    assert reports[1].timings["refine"] > 0.0


def test_level_solver_facts(disk_problem):
    reports, u = sol.multilevel_run(disk_problem, 2)
    for rep in reports:
        facts = rep.solver
        assert facts["lu_fill"] > facts["nnz"] > 0
        assert facts["rel_residual"] <= asm.KRYLOV_RTOL
        # one factorization per level (no CG fallback here), a CG solve for
        # each later real step, and a frozen solve after each real step;
        # the last one stopped the level
        assert facts["factorizations"] == 1 + facts["refactorizations"] == 1
        assert len(facts["krylov_iters"]) == rep.iterations - 1
        assert all(0 < it < asm.KRYLOV_MAXITER for it in facts["krylov_iters"])
        assert facts["frozen_solves"] == rep.iterations
        assert len(rep.update_norms) == rep.iterations + 1
        assert facts["stop_ratio"] == rep.update_norms[-1] / (
            sol.STOP_MARGIN * facts["newton_floor"])
        assert facts["stop_ratio"] < 1.0
    # the last level stopped at the roundoff floor of its final iterate
    floor = 100.0 * np.finfo(float).eps * asm.l2_norm(
        u, asm.TriangleQuadrature(u.space))
    assert reports[-1].solver["newton_floor"] == floor


def test_level_reports_fill_defect(disk, disk_problem):
    reports, _ = sol.multilevel_run(disk_problem, 2)
    meshes = [disk[1], refine_uniform(disk[1])]
    for rep, mesh in zip(reports, meshes):
        assert rep.solver["fill_defect"] == build_space(mesh).fill_defect
        assert rep.solver["fill_defect"] < 1e-12


def test_level_reports_quadrature_megabytes(disk, disk_problem):
    reports, _ = sol.multilevel_run(disk_problem, 1)
    quad = asm.TriangleQuadrature(build_space(disk[1]))
    assert reports[0].solver["quad_mb"] == quad.nbytes / 2**20 > 0


def test_level_reports_plan_megabytes(disk, disk_problem):
    # target, indices and indptr: int32, 4 bytes per slot, entry and row
    reports, _ = sol.multilevel_run(disk_problem, 1)
    plan = asm.ScatterPlan(asm.TriangleQuadrature(build_space(disk[1])))
    n, nnz, slots = plan.shape[0], plan.indices.size, plan.target.size
    assert plan.nbytes == 4 * (slots + nnz + n + 1)
    assert reports[0].solver["plan_mb"] == plan.nbytes / 2**20 > 0


def test_each_level_context_is_released_before_the_next_is_built(disk_problem, monkeypatch):
    # the transfer needs the previous solution alone, so the previous
    # level's quadrature and plan are gone when the next space is built
    quads = []

    class Watched(sol.LevelContext):
        def __init__(self, mesh):
            assert all(q() is None for q in quads)
            super().__init__(mesh)
            quads.append(weakref.ref(self.quad))

    monkeypatch.setattr(sol, "LevelContext", Watched)
    sol.multilevel_run(disk_problem, 3)
    assert len(quads) == 3


def test_level_reports_factor_megabytes_and_frozen_iters(disk_problem):
    # float32 factor values, and a CG solve of the factored matrix for the
    # factorization and after each real step
    reports, _ = sol.multilevel_run(disk_problem, 2)
    for rep in reports:
        facts = rep.solver
        assert facts["lu_mb"] * 2**20 == 4 * facts["lu_fill"]
        assert len(facts["frozen_iters"]) == facts["factorizations"] + facts["frozen_solves"]
        assert all(0 < it < asm.KRYLOV_MAXITER for it in facts["frozen_iters"])


def test_multilevel_single_level_report(disk_problem):
    reports, u = sol.multilevel_run(disk_problem, 1)
    assert len(reports) == 1
    assert reports[0].rates == {}
    assert reports[0].eps_errors is None
    assert reports[0].errors is not None


@pytest.mark.parametrize("levels", [0, -2])
def test_multilevel_run_rejects_levels_below_one(disk_problem, levels):
    with pytest.raises(ValueError, match="levels must be >= 1"):
        sol.multilevel_run(disk_problem, levels)


def test_level_line_is_logged(disk_problem, caplog):
    with caplog.at_level(logging.INFO, logger="conicfem"):
        sol.multilevel_run(disk_problem, 1)
    assert ("level 1: dim=134 m=3 factorizations=1 refactorizations=0 "
            "krylov_iters=[3, 3] R=") in caplog.text


def test_rates_do_not_depend_on_levels_run(disk_problem):
    two, _ = sol.multilevel_run(disk_problem, 2)
    three, _ = sol.multilevel_run(disk_problem, 3)
    assert two[1].rates == three[1].rates
    for k, name in enumerate(("L2", "H1", "H2")):
        for reports in (two, three):
            assert reports[1].rates[name] == np.log2(
                reports[0].errors[k] / reports[1].errors[k])
        assert three[1].eps_rates[name] == np.log2(
            three[0].eps_errors[k] / three[1].eps_errors[k])


def test_convexity_monitor_from_level_two(disk_problem):
    reports, _ = sol.multilevel_run(disk_problem, 2)
    assert reports[1].hessian_eigmin >= 0.0


def test_g_positivity_checked(disk):
    dom, mesh = disk
    bad = sol.MongeAmpereProblem(dom, mesh, lambda x: -np.ones(len(x)))
    with pytest.raises(ValueError):
        sol.multilevel_run(bad, 1)


def test_chunks_and_splines_read_the_space_maps(disk_ctx, disk_ctx2):
    # every map is stored once: the chunks hold views of the space's groups
    for ctx in (disk_ctx, disk_ctx2):
        for ch in ctx.quad.chunks:
            assert any(np.shares_memory(ch.Z, grp.Z) for grp in ctx.space.groups)
            assert any(np.shares_memory(ch.cols, grp.cols) for grp in ctx.space.groups)
    # and pieces are formed per group only: no per-triangle reader is left
    for name in ("local_map", "tri_degree", "pie_q"):
        assert not hasattr(SplineSpace, name) and not hasattr(disk_ctx.space, name)
    assert not hasattr(SplineFunction, "patch")


def test_non_convex_iterate_after_the_first_raises(disk_ctx, disk_problem):
    # from the concave mirror of the Poisson guess Newton heads for the
    # concave solution of det(Hessian u) = g; the start is exempt, the
    # first iterate is not
    g = disk_problem.g
    u0 = sol.poisson_initial_guess(disk_ctx, g)
    with pytest.raises(asm.SolverError,
                       match="level 1: Newton iterate 1 is not convex"):
        sol.run_level(disk_ctx, g, disk_ctx.space.spline(-u0.dofs))


def test_no_factorization_outlives_its_level(disk_problem, monkeypatch):
    # at most one set of factors is alive: the Poisson guess's is released
    # before the level's is made, and each level makes one and releases it
    # when it ends
    import weakref
    made = []
    per_level = []
    real_run_level = sol.run_level

    class Tracked(asm.Factors):
        def __init__(self, matrix):
            assert all(ref() is None for ref in made)
            super().__init__(matrix)
            made.append(weakref.ref(self))

    def run_level(*args, **kwargs):
        before = len(made)
        out = real_run_level(*args, **kwargs)
        assert all(ref() is None for ref in made)
        per_level.append(len(made) - before)
        return out

    monkeypatch.setattr(asm, "Factors", Tracked)
    monkeypatch.setattr(sol, "run_level", run_level)
    reports, _ = sol.multilevel_run(disk_problem, 2)
    assert per_level == [1, 1]
    assert [rep.solver["factorizations"] for rep in reports] == per_level
    assert len(made) == 1 + sum(per_level)
    assert all(ref() is None for ref in made)


def test_failed_krylov_solve_falls_back_to_a_fresh_factorization(disk_ctx, disk_problem,
                                                                 monkeypatch):
    # the second Newton matrix with the first one's factors: that one CG
    # call, capped at one iteration, misses its tolerance, so the old
    # factors are released, the matrix is factored afresh, its factors
    # become the level's, and the step's solution is the direct one (both
    # solved to KRYLOV_RTOL)
    import weakref
    ctx, g = disk_ctx, disk_problem.g
    u0 = sol.poisson_initial_guess(ctx, g)
    solves = sol.NewtonSolves()
    u1, _ = sol.newton_step(ctx, u0, sol.newton_rhs(ctx, u0, g), solves)
    first = weakref.ref(solves.factors)
    A, _, rhs = sol.newton_rhs(ctx, u1, g)
    matrix = asm.assemble(A, ctx.quad)
    want = asm.solve_sparse(asm.SparseSystem(matrix, -rhs)).dofs

    class Fresh(asm.Factors):
        def __init__(self, matrix):
            assert first() is None
            super().__init__(matrix)

    real_cg, missed = asm.spla.cg, []

    def cg_missing_once(*args, **kwargs):
        if not missed:
            missed.append(kwargs["maxiter"])
            kwargs["maxiter"] = 1
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(asm, "Factors", Fresh)
    monkeypatch.setattr(asm.spla, "cg", cg_missing_once)
    got = solves.solve(matrix, -rhs)
    assert missed == [asm.KRYLOV_MAXITER]
    assert (solves.factorizations, solves.refactorizations, solves.krylov_iters) == (2, 1, [1])
    assert isinstance(solves.factors, Fresh) and solves.factors.matrix is matrix
    assert got.factors is None
    assert np.abs(got.dofs - want).max() <= 1e-12 * np.abs(want).max()
    # the next solve is CG with the new factors
    again = solves.solve(matrix, -rhs)
    assert solves.factorizations == 2 and solves.krylov_iters[1:] == [got.iterations]
    assert np.abs(again.dofs - want).max() <= 1e-12 * np.abs(want).max()


# m of levels 1-2 in the convergence tables
SHIPPED_M = {"disk": [3, 2], "ellipse-exp": [5, 1], "ellipse-sin": [5, 3],
             "c2-domain": [4, 4]}


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_shipped_problems_pass_the_convexity_check(pid):
    # ellipse-sin L1 (Poisson guess) and c2-domain L2 (transfer guess)
    # start outside the convex cone, which only the start may do
    dom, mesh = builtin_domain(pid)
    reports, _ = sol.multilevel_run(
        sol.MongeAmpereProblem(dom, mesh, problem_g(pid), name=pid), 2)
    assert [rep.iterations for rep in reports] == SHIPPED_M[pid]
    assert not any(rep.diverged for rep in reports)
    starts_concave = {"ellipse-sin": 0, "c2-domain": 1}.get(pid)
    for lev, rep in enumerate(reports):
        assert (rep.hessian_eigmin < 0.0) == (lev == starts_concave)


@pytest.mark.parametrize("pid, levels", [("disk", 3), ("ellipse-exp", 2),
                                         ("ellipse-sin", 3), ("c2-domain", 2)])
def test_frozen_termination_matches_full_steps(hierarchies, pid, levels,
                                               monkeypatch):
    # the same m and, to roundoff, the same final iterate as confirming
    # convergence by one more full step, with one factorization (one
    # solve_sparse call) per level instead of m + 1, and one right-hand
    # side per iterate linearized at.  ellipse-sin L3 has the
    # smallest real correction relative to the floor (42.8x), which a
    # wider stop margin would take for converged
    calls = [0]
    rhs_calls = [0]
    real, real_rhs = asm.solve_sparse, asm.assemble_rhs

    def counting(system):
        calls[0] += 1
        return real(system)

    def counting_rhs(f, quad):
        rhs_calls[0] += 1
        return real_rhs(f, quad)

    monkeypatch.setattr(asm, "solve_sparse", counting)
    monkeypatch.setattr(asm, "assemble_rhs", counting_rhs)
    g = problem_g(pid)
    u = None
    for mesh in hierarchies[pid.replace("-sin", "-exp")][:levels]:
        ctx = sol.LevelContext(mesh)
        u0 = (sol.poisson_initial_guess(ctx, g) if u is None
              else sol.transfer_guess(sol.coarse_on_fine(u, ctx.space), ctx.space))
        calls[0] = rhs_calls[0] = 0
        state, _ = sol.run_level(ctx, g, u0)
        new_calls, calls[0] = calls[0], 0
        assert rhs_calls[0] == len(state.update_norms) == state.iterations + 1
        want, m, norms, diverged = run_level_full_steps(ctx, g, u0)
        assert not state.diverged and not diverged
        assert (state.spline.space.dimension, state.iterations) == (
            want.space.dimension, m)
        assert state.solver["factorizations"] == new_calls == (
            1 + state.solver["refactorizations"])
        assert calls[0] == len(norms) == m + 1
        # measured at most 7.0e-15 (c2-domain L1): run_level's solves ask
        # CG for KRYLOV_RTOL (1e-7), the full steps factor each matrix and
        # solve it to TIGHT_RTOL (1e-13)
        rel = np.abs(state.spline.dofs - want.dofs).max() / np.abs(want.dofs).max()
        assert rel < 1e-12
        u = state.spline


@pytest.fixture(scope="module")
def c2_ctx4(hierarchies):
    return sol.LevelContext(refine_uniform(hierarchies["c2-domain"][2]))


def _frozen_ratio(ctx, g, u, factors):
    """The simplified Newton correction at u with the factors, solved to
    KRYLOV_RTOL as in run_level, over the stop threshold at the corrected
    iterate."""
    rhs = -sol.newton_rhs(ctx, u, g)[2]
    u_next, n = sol._corrected(ctx, u, factors.solve(rhs).dofs)
    return n / (sol.STOP_MARGIN * sol.newton_floor(u_next, ctx.quad))


def _one_ulp_ratios(ctx, g, u, factors, draws=20):
    rng = np.random.default_rng(11)
    return [_frozen_ratio(ctx, g, ctx.space.spline(
                u.dofs + rng.integers(-1, 2, u.dofs.shape) * np.spacing(u.dofs)), factors)
            for _ in range(draws)]


def test_one_ulp_perturbations_keep_c2_l4_at_four_steps(c2_ctx4):
    # c2-domain L4 from the Poisson guess: the frozen correction fails the
    # stop rule after real steps 1-3 and passes after step 4, also when
    # the iterate after step 4 moves by random one-ulp changes, so m = 4
    # is no roundoff draw; each step factors its own matrix and solves it,
    # as run_level does, to KRYLOV_RTOL
    ctx, g = c2_ctx4, problem_g("c2-domain")
    solves = sol.NewtonSolves()
    u = sol.poisson_initial_guess(ctx, g)
    for k in range(1, 5):
        solves.factors = None
        u, n = sol.newton_step(ctx, u, sol.newton_rhs(ctx, u, g), solves)
        assert n > sol.STOP_MARGIN * sol.newton_floor(u, ctx.quad)
        assert (_frozen_ratio(ctx, g, u, solves.factors) < 1.0) == (k == 4)
    # measured at most 0.082 (0.66x the floor), so this keeps more than a
    # 4x margin under the threshold
    assert max(_one_ulp_ratios(ctx, g, u, solves.factors)) < 0.25


def test_one_ulp_perturbations_through_the_level_factors(c2_ctx4):
    # the same as run_level steps: one factorization, steps 2-4 by CG, and
    # every stop test with the level's (step 1) factors, all to KRYLOV_RTOL
    ctx, g = c2_ctx4, problem_g("c2-domain")
    solves = sol.NewtonSolves()
    u = sol.poisson_initial_guess(ctx, g)
    for k in range(1, 5):
        u, n = sol.newton_step(ctx, u, sol.newton_rhs(ctx, u, g), solves)
        assert n > sol.STOP_MARGIN * sol.newton_floor(u, ctx.quad)
        assert (_frozen_ratio(ctx, g, u, solves.factors) < 1.0) == (k == 4)
    assert solves.factorizations == 1 and len(solves.krylov_iters) == 3
    # measured at most 0.153 (1.22x the floor): the level's factors read
    # the roundoff of the step-4 iterate larger than its own (0.082 above)
    assert max(_one_ulp_ratios(ctx, g, u, solves.factors)) < 0.25


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_every_solve_of_a_run_asks_newton_rtol(pid, monkeypatch):
    # the Poisson guess, every real step and every frozen solve are one
    # Factors.solve each, which asks CG for KRYLOV_RTOL = MAX_REL_RESIDUAL / 10
    calls = [0]
    real = asm.Factors.solve

    def solve(self, rhs, matrix=None):
        calls[0] += 1
        return real(self, rhs, matrix)

    monkeypatch.setattr(asm.Factors, "solve", solve)
    reports, _ = sol.multilevel_run(builtin_problem(pid), 2)
    assert asm.KRYLOV_RTOL == asm.MAX_REL_RESIDUAL / 10
    assert calls[0] == 1 + sum(len(rep.solver["krylov_iters"]) + len(rep.solver["frozen_iters"])
                               for rep in reports)
